"""Decaying sequences, keyed Laplace noise draws, and the expanding ball radius.

All tunable sequences are power laws  value(t) = base / (t+1)^exponent.
The algorithm consumes five of them: the stepsize lambda_t, the damping
alpha_t, the two attenuation sequences gamma_{t,1} / gamma_{t,2}, and the
noise standard deviations sigma_{t,zeta} / sigma_{t,xi}.

Noise convention: a std-dev sigma maps to a per-element Laplace scale
nu = sigma / sqrt(2), so each element has variance 2 nu^2 = sigma^2.

Determinism: each iteration draws the noise of every agent at once, from
one counter-based generator (Philox) keyed by (seed, iteration, tag), so
sequential and parallel execution produce bit-identical noise.  Seeds lie in
[0, 2^64) and iterations below 2^62; the number of agents is not limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAG_ZETA = 0  # noise added to the gradient tracker y before sending
TAG_XI = 1  # noise added to the aggregate tracker psi before sending


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


def eval_profile(p: DecayProfile, t: int) -> float:
    """Evaluate a decay profile at integer iteration t >= 0."""
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    return p.value(t)


@dataclass(frozen=True)
class NoiseSchedule:
    """Std-dev profiles of the two injected noises, shared by all agents.

    ``dim`` is the dimension d of the noise vectors."""

    zeta: DecayProfile
    xi: DecayProfile
    dim: int


@dataclass(frozen=True)
class ScheduleSet:
    """The full set of decaying sequences consumed by one run."""

    lam: DecayProfile  # stepsize lambda_t        (lambda_0, u)
    alpha: DecayProfile  # damping alpha_t        (alpha_0, v)
    gamma1: DecayProfile  # attenuation gamma_{t,1} (gamma_1, w_1)
    gamma2: DecayProfile  # attenuation gamma_{t,2} (gamma_2, w_2)
    noise: NoiseSchedule


# ---------------------------------------------------------------------------
# deterministic noise draws
# ---------------------------------------------------------------------------

_T_BITS = 62


def _stream_key(seed: int, t: int, tag: int) -> int:
    """128-bit Philox key: seed in the high word; t and tag packed into 62
    and 2 bits of the low word.  Out-of-range fields raise instead of
    wrapping, since a wrapped field would alias another key."""
    if not (0 <= tag <= 1):
        raise ValueError("tag must be 0 (zeta) or 1 (xi)")
    if not (0 <= t < 1 << _T_BITS):
        raise ValueError(f"iteration {t} does not fit the stream key (must be in [0, 2**{_T_BITS}))")
    if not (0 <= seed < 1 << 64):
        raise ValueError(f"seed {seed} does not fit the stream key (must be in [0, 2**64))")
    return (seed << 64) | (t << 2) | tag


def noise_vector(seed: int, t: int, tag: int, sigma: float, m: int, dim: int) -> np.ndarray:
    """Keyed broadcast noise of all m senders at one iteration, stacked
    (m, dim): row j is sender j's vector.

    One counter-based generator keyed (seed, t, tag) fills the rows in
    order, so a sender's row does not depend on how many senders follow it.
    ``sigma`` is the std-dev sigma_t; the per-element scale is sigma/sqrt(2)."""
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, t, tag)))
    return rng.laplace(scale=sigma / math.sqrt(2.0), size=(m, dim))


# ---------------------------------------------------------------------------
# expanding projection ball
# ---------------------------------------------------------------------------


def ball_radius(gamma1: DecayProfile, L_f2: float, t: int) -> float:
    """Radius (1 + sum_{p=0}^{t-1} gamma_{p,1}) * L_f2 of the projection ball.

    Recomputed from scratch; the run loop keeps the partial sum incrementally
    (see BallRadiusTracker)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not (L_f2 > 0):
        raise ValueError("L_f2 must be > 0")
    partial = math.fsum(gamma1.value(p) for p in range(t))
    return (1.0 + partial) * L_f2


@dataclass
class BallRadiusTracker:
    """O(1)-per-iteration radius bookkeeping for the run loop.

    ``radius()`` returns the radius for the *current* iteration t, i.e. with
    the partial sum over p < t; call ``advance()`` once per completed step."""

    gamma1: DecayProfile
    L_f2: float
    t: int = 0
    _partial: float = field(default=0.0, repr=False)

    def radius(self) -> float:
        return (1.0 + self._partial) * self.L_f2

    def advance(self) -> None:
        self._partial += self.gamma1.value(self.t)
        self.t += 1
