"""The EV-charging instance.

Each of m EV users schedules a charging profile x^i over K = 13 hourly
slots (21:00 .. 09:00) subject to 0 <= x^i <= x_max^i and 1'x^i = E^i
(battery energy).  The aggregate is the capacity-normalized load

    g_i(x^i) = (m / C_tot) (x^i + d^i),   phi(x) = (sum_i x^i + d^i) / C_tot,

and the local cost is the electricity bill f_i(x^i, psi) = p(psi)'(x^i + d^i)
with price p(r) = 0.15 r^1.5 elementwise.

The price is evaluated on psi clamped to [0, psi_cap]: negative loads cannot
occur physically (they only arise from injected noise in the tracker) and
the cap keeps grad2_f globally bounded, which the ball-containment argument
needs.  Lipschitz constants are computed in closed form on that box, with a
10% safety margin:

    L_f1  = 1.1 * sqrt(K) * 0.15 * cap^1.5            (||grad1|| = ||p(psi)||)
    L_f2  = 1.1 * 0.225 * sqrt(cap) * max_i ||x_max^i + d^i||
    L_g   = 1.1 * m / C_tot                            (operator norm of grad g)
    D_X   = sqrt(sum_i ||x_max^i||^2), D_f at the max-load corner.

A problem is data plus kernels: ``EVChargingSpec`` holds the arrays, the
cap and the constants derived from them, and its methods are the problem's
callables, so a problem pickles.  A spec is checked when it is made.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import DagoptError
from .base import AggregativeProblem, ProblemConstants
from .projections import BoxBudgetProjection

K_SLOTS = 13
PRICE_COEFF = 0.15
PRICE_EXP = 1.5
FULL_SCALE_CAPACITY_KW = 1.2e8  # total generation capacity at m = 1e7 users


@dataclass(frozen=True)
class EVChargingSpec:
    """Data of one EV-charging instance (all power values in kW); its methods are the kernels."""

    E: np.ndarray  # (m,) required energy per EV (kWh)
    x_max: np.ndarray  # (m, K) per-slot max charging rate
    d: np.ndarray  # (m, K) per-user non-EV demand
    C_tot: float  # total generation capacity
    price_coeff: float = PRICE_COEFF
    price_exp: float = PRICE_EXP
    # psi box [0, psi_cap]; None means 1.5 x the peak load with every EV at
    # full rate.  ``replace(spec, d=...)`` keeps it, so an adjacent instance
    # prices on the true instance's box.
    psi_cap: float | None = None
    scale: float = field(init=False, repr=False)  # m / C_tot
    dcoeff: float = field(init=False, repr=False)  # price_coeff * price_exp

    def __post_init__(self):
        if self.x_max.shape[1] != K_SLOTS:
            raise DagoptError(f"expected K={K_SLOTS} slots, got {self.x_max.shape[1]}")
        if np.any(self.d < 0):
            raise DagoptError("demands must be nonnegative")
        if np.any(self.E < 0):
            raise DagoptError("required energy must be nonnegative")
        slack = self.x_max.sum(axis=1) - self.E
        if np.any(slack < 0):
            bad = int(np.argmin(slack))
            raise DagoptError(
                f"agent {bad}: required energy {self.E[bad]} exceeds max deliverable {self.x_max[bad].sum()}"
            )
        if self.psi_cap is None:
            max_load = (self.x_max.sum(axis=0) + self.d.sum(axis=0)) / self.C_tot
            object.__setattr__(self, "psi_cap", 1.5 * float(max_load.max()))
        object.__setattr__(self, "scale", self.m / self.C_tot)
        object.__setattr__(self, "dcoeff", self.price_coeff * self.price_exp)  # 0.225 for the default price

    @property
    def m(self) -> int:
        return self.E.shape[0]

    def price(self, psi):
        # negative aggregate estimates (possible transiently under injected
        # noise) price as zero load; no upper clamp, so an algorithm whose
        # aggregate tracker drifts sees genuinely exploding prices
        return self.price_coeff * np.maximum(psi, 0.0) ** self.price_exp

    def f_all(self, x, psi):
        return np.einsum("...ik,...ik->...i", self.price(psi), x + self.d)

    def g_all(self, x):
        return self.scale * (x + self.d)

    def grad1_all(self, x, psi):
        return self.price(psi)

    def grad2_all(self, x, psi):
        # the price slope saturates at the cap: this is the Lipschitz domain
        # restriction that keeps ||grad2_f|| <= L_f2 for any tracker state,
        # and it only differs from the true slope above the feasible range
        return self.dcoeff * np.clip(psi, 0.0, self.psi_cap) ** (self.price_exp - 1.0) * (x + self.d)

    def gg_apply_all(self, x, v):
        return self.scale * v

    # Gradient-check hooks: the budget equality gives X_i an empty interior,
    # but f_i and g_i are smooth in x everywhere, so interiority only needs
    # the rate box (and the psi clamp, handled by the psi domain).
    def interior_check(self, x, h2):
        return (x > h2) & (x < self.x_max - h2)

    def interior_sampler(self, rng):
        rand_pt = BoxBudgetProjection(self.x_max, self.E)(rng.uniform(0.0, 1.0, (self.m, K_SLOTS)) * self.x_max)
        return 0.7 * (self.E[:, None] / K_SLOTS) + 0.3 * rand_pt


def _read_models():
    with resources.files("dagopt.data").joinpath("ev_models.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    return [(r["model"], float(r["max_rate_kW"]), float(r["battery_kWh"])) for r in rows]


def _read_demand_profile():
    vals = []
    with resources.files("dagopt.data").joinpath("demand_profile.csv").open() as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                vals.append(float(line))
    if len(vals) != K_SLOTS:
        raise DagoptError(f"demand profile must have {K_SLOTS} values, got {len(vals)}")
    return np.array(vals)


def desk_ev_spec(m: int = 20) -> EVChargingSpec:
    """Desk-scale default: m users cycling through the 10 bundled models,
    capacity scaled by m/1e7 to preserve the per-user load shape."""
    models, profile = _read_models(), _read_demand_profile()
    rates = np.array([models[i % len(models)][1] for i in range(m)])
    batteries = np.array([models[i % len(models)][2] for i in range(m)])
    x_max = np.repeat(rates[:, None], K_SLOTS, axis=1)
    # mild deterministic heterogeneity in base demand so agents are not clones
    factors = 1.0 + 0.1 * np.cos(2.0 * np.pi * np.arange(m) / max(m, 1))
    d = factors[:, None] * profile[None, :]
    C_tot = FULL_SCALE_CAPACITY_KW * (m / 1e7)
    return EVChargingSpec(E=batteries, x_max=x_max, d=d, C_tot=C_tot)


def ev_problem(spec: EVChargingSpec) -> AggregativeProblem:
    K = K_SLOTS
    coeff, pexp, cap = spec.price_coeff, spec.price_exp, spec.psi_cap
    psi_hi = np.full(K, cap)
    xd_max = spec.x_max + spec.d  # per-agent upper corner of x + d
    margin = 1.1
    L_f1 = margin * math.sqrt(K) * coeff * cap**pexp
    xd_norms = np.linalg.norm(xd_max, axis=1)
    L_f2 = margin * spec.dcoeff * math.sqrt(cap) * float(xd_norms.max())
    L_g = margin * spec.scale
    D_X = float(np.sqrt((spec.x_max**2).sum()))
    D_f = margin * float((spec.price(psi_hi) @ xd_max.T).max())
    constants = ProblemConstants(
        L_f1=L_f1,
        L_f2=L_f2,
        L_g=L_g,
        mu=0.0,
        D_X=D_X,
        D_f=D_f,
    )
    return AggregativeProblem(
        m=spec.m,
        n=K,
        d=K,
        constants=constants,
        psi_lo=np.zeros(K),
        psi_hi=psi_hi,
        f_all=spec.f_all,
        g_all=spec.g_all,
        grad1_all=spec.grad1_all,
        grad2_all=spec.grad2_all,
        gg_apply_all=spec.gg_apply_all,
        project_all=BoxBudgetProjection(spec.x_max, spec.E),
        interior_check=spec.interior_check,
        interior_sampler=spec.interior_sampler,
        meta={"spec": spec},
    )
