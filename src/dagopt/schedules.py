"""Decaying sequences, Laplace noise streams, and the expanding ball radius.

All tunable sequences are power laws  value(t) = base / (t+1)^exponent.
The algorithm consumes five of them: the stepsize lambda_t, the damping
alpha_t, the two attenuation sequences gamma_{t,1} / gamma_{t,2}, and the
noise standard deviations sigma_{t,zeta} / sigma_{t,xi}.

Noise convention: a std-dev sigma maps to a per-element Laplace scale
nu = sigma / sqrt(2), so each element has variance 2 nu^2 = sigma^2.

Determinism: every noise draw is keyed by (seed, agent, iteration, tag)
through a counter-based generator (Philox), so sequential and parallel
execution produce bit-identical streams.
"""

from __future__ import annotations

import math
import threading
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
    """Per-agent std-dev profiles for the two injected noises.

    ``zeta``/``xi`` are either a single shared profile or a tuple with one
    profile per agent.  ``dim`` is the dimension d of the noise vectors.
    """

    zeta: DecayProfile | tuple[DecayProfile, ...]
    xi: DecayProfile | tuple[DecayProfile, ...]
    dim: int

    def zeta_profile(self, agent: int) -> DecayProfile:
        if isinstance(self.zeta, DecayProfile):
            return self.zeta
        return self.zeta[agent]

    def xi_profile(self, agent: int) -> DecayProfile:
        if isinstance(self.xi, DecayProfile):
            return self.xi
        return self.xi[agent]

    def profiles(self, tag: int):
        p = self.zeta if tag == TAG_ZETA else self.xi
        return (p,) if isinstance(p, DecayProfile) else tuple(p)


@dataclass(frozen=True)
class ScheduleSet:
    """The full set of decaying sequences consumed by one run."""

    lam: DecayProfile  # stepsize lambda_t        (lambda_0, u)
    alpha: DecayProfile  # damping alpha_t        (alpha_0, v)
    gamma1: DecayProfile  # attenuation gamma_{t,1} (gamma_1, w_1)
    gamma2: DecayProfile  # attenuation gamma_{t,2} (gamma_2, w_2)
    noise: NoiseSchedule


# ---------------------------------------------------------------------------
# deterministic noise streams
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_AGENT_BITS = 22
_T_BITS = 40


def _stream_key(seed: int, agent: int, t: int, tag: int) -> int:
    """128-bit Philox key: seed in the high word; agent, t and tag packed
    into 22, 40 and 2 bits of the low word.  Out-of-range fields raise
    instead of wrapping, since a wrapped field would alias another key."""
    if not (0 <= tag <= 1):
        raise ValueError("tag must be 0 (zeta) or 1 (xi)")
    if agent < 0 or t < 0:
        raise ValueError("agent and iteration must be nonnegative")
    if agent >= 1 << _AGENT_BITS:
        raise ValueError(f"agent index {agent} does not fit the stream key (must be < 2**{_AGENT_BITS})")
    if t >= 1 << _T_BITS:
        raise ValueError(f"iteration {t} does not fit the stream key (must be < 2**{_T_BITS})")
    if not (0 <= seed <= _MASK64):
        raise ValueError(f"seed {seed} does not fit the stream key (must be in [0, 2**64))")
    return (seed << 64) | (agent << (_T_BITS + 2)) | (t << 2) | tag


def stream(seed: int, agent: int, t: int, tag: int) -> np.random.Generator:
    """Counter-based generator for the draw keyed (seed, agent, t, tag).

    Two streams with the same key are bit-identical; distinct keys are
    statistically independent (Philox counter-mode)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, agent, t, tag)))


class _ReusableStream:
    """One Philox bit generator re-keyed per draw.

    Before each draw the full generator state is overwritten from a state
    dict this object owns: zero counter, empty output buffer and the new
    key.  That yields output bit-identical to a freshly constructed
    ``stream(...)`` while skipping the per-draw constructor cost and any
    read-back of the generator's state; each process/thread uses its own
    instance, so draws stay contention-free."""

    def __init__(self):
        self._bg = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bg)
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # buffer exhausted: the first draw computes block 1
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, key: int) -> np.random.Generator:
        self._key[0] = key & _MASK64
        self._key[1] = key >> 64
        self._bg.state = self._state
        return self._gen


_local = threading.local()


def _reusable(key: int) -> np.random.Generator:
    cache = getattr(_local, "stream_cache", None)
    if cache is None:
        cache = _local.stream_cache = _ReusableStream()
    return cache.rekey(key)


def sample_laplace_vector(scale: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim iid Laplace(scale) draws from an explicit stream.

    ``scale`` is the per-element Laplace parameter nu (variance 2 nu^2)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (scale > 0):
        raise ValueError(f"Laplace scale must be > 0, got {scale}")
    return rng.laplace(loc=0.0, scale=scale, size=dim)


def noise_vector(
    seed: int,
    agent: int,
    t: int,
    tag: int,
    sigma: float,
    dim: int,
    enabled: bool = True,
) -> np.ndarray:
    """Keyed broadcast noise for one sender at one iteration.

    ``sigma`` is the std-dev sigma_t; the per-element scale is sigma/sqrt(2).
    With ``enabled=False`` (noise-free mode) returns the zero vector."""
    if not enabled or sigma == 0.0:
        return np.zeros(dim)
    rng = _reusable(_stream_key(seed, agent, t, tag))
    return sample_laplace_vector(sigma / math.sqrt(2.0), dim, rng)


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
