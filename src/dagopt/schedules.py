"""Decaying sequences, Laplace noise streams, and the expanding ball radius.

All tunable sequences are power laws  value(t) = base / (t+1)^exponent.
The algorithm consumes five of them: the stepsize lambda_t, the damping
alpha_t, the two attenuation sequences gamma_{t,1} / gamma_{t,2}, and the
noise standard deviations sigma_{t,zeta} / sigma_{t,xi}, which every agent
shares.  A schedule set has no noise dimension: each draw takes its (m, d)
shape from the problem.

Noise convention: a std-dev sigma maps to a per-element Laplace scale
nu = sigma / sqrt(2), so each element has variance 2 nu^2 = sigma^2.

Determinism: a run owns two counter-based generators (Philox), one per
tag, keyed by (seed, tag) with seeds in [0, 2^64).  Each iteration draws the
noise of every agent at once as the next block of each stream, so a run's
noise depends only on its seed and the order of its rounds, never on how
runs are spread over processes.
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


def noise_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The zeta and xi generators of one run, indexed by tag: Philox keyed
    seed<<64 | tag.  Philox rejects keys outside [0, 2^128), so a seed
    outside [0, 2^64) raises instead of aliasing another seed's streams."""
    return tuple(np.random.Generator(np.random.Philox(key=(seed << 64) | tag)) for tag in (TAG_ZETA, TAG_XI))


def noise_vector(rng: np.random.Generator, sigma: float, m: int, dim: int) -> np.ndarray:
    """The next broadcast noise block of all m senders from ``rng``, stacked
    (m, dim): row j is sender j's vector.  ``sigma`` is the std-dev sigma_t;
    the per-element scale is sigma/sqrt(2)."""
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
