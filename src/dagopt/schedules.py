"""Decaying sequences and Laplace noise streams.

All tunable sequences are power laws  value(t) = base / (t+1)^exponent.
The algorithm consumes five of them: the stepsize lambda_t, the damping
alpha_t, the two attenuation sequences gamma_{t,1} / gamma_{t,2}, and the
noise standard deviations sigma_{t,zeta} / sigma_{t,xi}, which every agent
shares.  A schedule set has no noise dimension: a run's streams take their
(m, d) shape from the problem when the run starts.

Noise convention: a std-dev sigma maps to a per-element Laplace scale
nu = sigma / sqrt(2), so each element has variance 2 nu^2 = sigma^2.

Determinism: a run owns two counter-based generators (Philox), one per
tag, keyed by (seed, tag) with seeds in [0, 2^64).  Each iteration draws the
noise of every agent at once as the next block of each stream, so a run's
noise depends only on its seed and the order of its rounds, never on how
runs are spread over processes.

Kernel: a block is the inverse CDF of numpy's ``random_laplace`` (loc 0)
applied to the stream's uniforms in one vectorized pass, so it consumes
the same uniforms, skips a zero uniform as ``random_laplace`` does, and
leaves the generator where ``Generator.laplace`` would.  numpy's SIMD
``log`` replaces the scalar libm ``log`` that ``Generator.laplace`` calls
per element, so an element may differ from ``Generator.laplace`` by up to
2 ulp, and hosts whose numpy picks another ``log`` kernel (AVX-512 against
AVX2) may differ from each other at the ulp level.  The bits of ``np.log``
do not depend on an element's position, so a stream refills several
rounds at once (``NOISE_BLOCK_ELEMENTS``) and every block is the one a
per-round pass gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAG_ZETA = 0  # noise added to the gradient tracker y before sending
TAG_XI = 1  # noise added to the aggregate tracker psi before sending
# Bound on the elements of one refill of a noise stream, K * m * d: K rounds
# of uniforms are transformed per pass (see `LaplaceStream`).
NOISE_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class DecayProfile:
    """One power-law sequence base / (t+1)^exponent."""

    base: float
    exponent: float

    def __post_init__(self):
        if not (self.base > 0):
            raise ValueError(f"DecayProfile base must be > 0, got {self.base}")

    def value(self, t: int) -> float:
        return self.base / (t + 1.0) ** self.exponent


@dataclass(frozen=True)
class ScheduleSet:
    """The full set of decaying sequences consumed by one run."""

    lam: DecayProfile  # stepsize lambda_t        (lambda_0, u)
    alpha: DecayProfile  # damping alpha_t        (alpha_0, v)
    gamma1: DecayProfile  # attenuation gamma_{t,1} (gamma_1, w_1)
    gamma2: DecayProfile  # attenuation gamma_{t,2} (gamma_2, w_2)
    zeta: DecayProfile  # noise on y sigma_{t,zeta}   (sigma_zeta, varsigma_zeta)
    xi: DecayProfile  # noise on psi sigma_{t,xi}   (sigma_xi, varsigma_xi)


# ---------------------------------------------------------------------------
# deterministic noise draws
# ---------------------------------------------------------------------------


def standard_laplace(rng, size: int) -> np.ndarray:
    """``size`` unit-scale Laplace draws from ``rng``'s next uniforms:
    copysign(log(min(u + u, (2 - u) - u)), u - 1/2), numpy's
    ``random_laplace`` expression.  A zero uniform is skipped and the next
    one taken, as there."""
    u = rng.random(size)
    if u.min() == 0.0:  # log(0) would give -inf; probability 2^-53 per draw
        u = u[u != 0.0]
        while u.size < size:
            more = rng.random(size - u.size)
            u = np.concatenate([u, more[more != 0.0]])
    out = u + u
    np.minimum(out, (2.0 - u) - u, out=out)
    np.log(out, out=out)
    return np.copysign(out, u - 0.5, out=out)


class LaplaceStream:
    """The unit-scale Laplace (m, dim) blocks of one run and tag, drawn from
    ``rng``.  A refill holds ``rounds`` = K blocks, as many as keep
    K * m * dim within NOISE_BLOCK_ELEMENTS and at least one; the blocks are
    the same for every K."""

    def __init__(self, rng: np.random.Generator, m: int, dim: int):
        self.rng = rng
        self.rounds = max(1, NOISE_BLOCK_ELEMENTS // (m * dim))
        self._refill = (self.rounds, m, dim)
        self._blocks = None
        self._next = self.rounds

    def next_block(self) -> np.ndarray:
        if self._next == self.rounds:
            self._blocks = standard_laplace(self.rng, math.prod(self._refill)).reshape(self._refill)
            self._next = 0
        self._next += 1
        return self._blocks[self._next - 1]


def noise_streams(seed: int, m: int, dim: int) -> tuple[LaplaceStream, LaplaceStream]:
    """The zeta and xi streams of one run of m agents, indexed by tag: Philox
    keyed seed<<64 | tag.  Philox rejects keys outside [0, 2^128), so a seed
    outside [0, 2^64) raises instead of aliasing another seed's streams."""
    return tuple(LaplaceStream(np.random.Generator(np.random.Philox(key=(seed << 64) | tag)), m, dim)
                 for tag in (TAG_ZETA, TAG_XI))


def noise_vector(stream: LaplaceStream, sigma: float) -> np.ndarray:
    """The next broadcast noise block of all m senders from ``stream``,
    stacked (m, dim): row j is sender j's vector.  ``sigma`` is the std-dev
    sigma_t; the per-element scale is sigma/sqrt(2)."""
    return stream.next_block() * (sigma / math.sqrt(2.0))
