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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
    """Data of one EV-charging instance (all power values in kW)."""

    E: np.ndarray  # (m,) required energy per EV (kWh)
    x_max: np.ndarray  # (m, K) per-slot max charging rate
    d: np.ndarray  # (m, K) per-user non-EV demand
    C_tot: float  # total generation capacity
    price_coeff: float = PRICE_COEFF
    price_exp: float = PRICE_EXP

    def __post_init__(self):
        if self.x_max.shape[1] != K_SLOTS:
            raise DagoptError(f"expected K={K_SLOTS} slots, got {self.x_max.shape[1]}")
        if np.any(self.d < 0):
            raise DagoptError("demands must be nonnegative")
        if np.any(self.E < 0):
            raise DagoptError("required energy must be nonnegative")

    @property
    def m(self) -> int:
        return self.E.shape[0]


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


def _assemble_spec(models, profile, m) -> EVChargingSpec:
    rates = np.array([models[i % len(models)][1] for i in range(m)])
    batteries = np.array([models[i % len(models)][2] for i in range(m)])
    x_max = np.repeat(rates[:, None], K_SLOTS, axis=1)
    # mild deterministic heterogeneity in base demand so agents are not clones
    factors = 1.0 + 0.1 * np.cos(2.0 * np.pi * np.arange(m) / max(m, 1))
    d = factors[:, None] * profile[None, :]
    C_tot = FULL_SCALE_CAPACITY_KW * (m / 1e7)
    spec = EVChargingSpec(E=batteries, x_max=x_max, d=d, C_tot=C_tot)
    _check_feasible(spec)
    return spec


def desk_ev_spec(m: int = 20) -> EVChargingSpec:
    """Desk-scale default: m users cycling through the 10 bundled models,
    capacity scaled by m/1e7 to preserve the per-user load shape."""
    return _assemble_spec(_read_models(), _read_demand_profile(), m)


def _check_feasible(spec: EVChargingSpec):
    slack = spec.x_max.sum(axis=1) - spec.E
    if np.any(slack < 0):
        bad = int(np.argmin(slack))
        raise DagoptError(
            f"agent {bad}: required energy {spec.E[bad]} exceeds max deliverable {spec.x_max[bad].sum()}"
        )


def ev_problem(spec: EVChargingSpec, psi_cap: float | None = None) -> AggregativeProblem:
    _check_feasible(spec)
    m, K = spec.m, K_SLOTS
    scale = m / spec.C_tot
    coeff, pexp = spec.price_coeff, spec.price_exp
    dcoeff = coeff * pexp  # 0.225 for the default price

    max_load = (spec.x_max.sum(axis=0) + spec.d.sum(axis=0)) / spec.C_tot
    cap = float(psi_cap) if psi_cap is not None else 1.5 * float(max_load.max())
    psi_lo = np.zeros(K)
    psi_hi = np.full(K, cap)
    xd_max = spec.x_max + spec.d  # per-agent upper corner of x + d

    def price(psi):
        # negative aggregate estimates (possible transiently under injected
        # noise) price as zero load; no upper clamp, so an algorithm whose
        # aggregate tracker drifts sees genuinely exploding prices
        return coeff * np.maximum(psi, 0.0) ** pexp

    def dprice(psi):
        # the price slope saturates at the cap: this is the Lipschitz domain
        # restriction that keeps ||grad2_f|| <= L_f2 for any tracker state,
        # and it only differs from the true slope above the feasible range
        return dcoeff * np.clip(psi, 0.0, cap) ** (pexp - 1.0)

    def f_all(x, psi):
        return np.einsum("...ik,...ik->...i", price(psi), x + spec.d)

    def g_all(x):
        return scale * (x + spec.d)

    def grad1_all(x, psi):
        return price(psi)

    def grad2_all(x, psi):
        return dprice(psi) * (x + spec.d)

    def gg_apply_all(x, v):
        return scale * v

    project_all = BoxBudgetProjection(spec.x_max, spec.E)

    # Gradient-check hooks: the budget equality gives X_i an empty interior,
    # but f_i and g_i are smooth in x everywhere, so interiority only needs
    # the rate box (and the psi clamp, handled by the psi domain).
    def interior_check(x, h2):
        return np.all((x > h2) & (x < spec.x_max - h2), axis=1)

    def interior_sampler(rng):
        rand_pt = project_all(rng.uniform(0.0, 1.0, (m, K)) * spec.x_max)
        return 0.7 * (spec.E[:, None] / K) + 0.3 * rand_pt

    margin = 1.1
    L_f1 = margin * math.sqrt(K) * coeff * cap**pexp
    xd_norms = np.linalg.norm(xd_max, axis=1)
    L_f2 = margin * dcoeff * math.sqrt(cap) * float(xd_norms.max())
    L_g = margin * scale
    D_X = float(np.sqrt((spec.x_max**2).sum()))
    D_f = margin * float((price(psi_hi) @ xd_max.T).max())
    constants = ProblemConstants(
        L_f1=L_f1,
        L_f2=L_f2,
        L_g=L_g,
        mu=0.0,
        D_X=D_X,
        D_f=D_f,
    )
    return AggregativeProblem(
        m=m,
        n=K,
        d=K,
        constants=constants,
        psi_lo=psi_lo,
        psi_hi=psi_hi,
        name="ev-charging",
        f_all=f_all,
        g_all=g_all,
        grad1_all=grad1_all,
        grad2_all=grad2_all,
        gg_apply_all=gg_apply_all,
        project_all=project_all,
        interior_check=interior_check,
        interior_sampler=interior_sampler,
        meta={"spec": spec, "psi_cap": cap},
    )
