"""Joint-differential-privacy budget and truthfulness-bound accounting.

The cumulative budget over T iterations is

    eps(T) = sum_{t=1}^{T} [ sqrt(2) c1 lambda0 / (sigma_xi  gamma1 gamma2 (t+1)^{u-w1-w2-varsigma_xi})
                           + sqrt(2) c2 gamma1  / (sigma_zeta               (t+1)^{w1-varsigma_zeta}) ]

where every agent shares the noise profiles (sigma_xi, varsigma_xi) and
(sigma_zeta, varsigma_zeta), so the paper's min over agents of the noise
base and max over agents of the noise exponent are these values themselves.
Here c1 = w_hat*gamma2 / (w_hat*gamma2 - (u - w1 - w2)) and
c2 = (4 w1 / (e ln(2/(2 - w_hat))))^{w1} * 2/w_hat, where w_hat = min_i |w_ii|.
Both series converge because the truthful regime forces both exponents > 1.

The truthfulness bound is eta = (L_f1 + L_f2 L_g) D_X + 2 eps D_f; the
2*eps factor comes from linearizing e^eps <= 1 + 2 eps, valid for eps < 1
(outside that range eta is still reported, with a flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DagoptError, DenominatorNonpositive, RegimeViolation
from .network import WeightMatrix
from .schedules import ScheduleSet

REGIMES = (
    "T1-strongly-convex",
    "T1-convex",
    "T1-nonconvex",
    "T2-truthful",
    "T3-sc",
    "T3-convex",
    "T3-nonconvex",
)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    left: float
    right: float

    @property
    def satisfied(self) -> bool:
        return self.left > self.right


@dataclass(frozen=True)
class RegimeConditions:
    regime: str
    checks: tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def failures(self) -> list[InequalityCheck]:
        return [c for c in self.checks if not c.satisfied]


def _exponents(schedules: ScheduleSet):
    u = schedules.lam.exponent
    v = schedules.alpha.exponent
    w1 = schedules.gamma1.exponent
    w2 = schedules.gamma2.exponent
    # every agent shares one profile, so varsigma and hat-varsigma coincide
    return u, v, w1, w2, schedules.zeta.exponent, schedules.xi.exponent


def check_regime(schedules: ScheduleSet, regime: str) -> RegimeConditions:
    """Evaluate the selected regime's parameter inequalities, itemized."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")
    u, v, w1, w2, s_z, s_x = _exponents(schedules)
    C = InequalityCheck
    checks: list[InequalityCheck] = []
    if regime == "T1-strongly-convex":
        checks = [
            C("1 > u", 1.0, u),
            C("u > w2", u, w2),
            C("1 > v", 1.0, v),
            C("v > w2", v, w2),
            C("1 > w1", 1.0, w1),
            C("1 > w2", 1.0, w2),
            C("varsigma_zeta > max{w1, w2/2}", s_z, max(w1, w2 / 2.0)),
            C("varsigma_xi > v/2 - w2", s_x, v / 2.0 - w2),
            C("1 > varsigma_zeta", 1.0, s_z),
            C("1 > varsigma_xi", 1.0, s_x),
        ]
    elif regime == "T1-convex":
        checks = [
            C("1 > u", 1.0, u),
            C("u > (1+w2)/2", u, (1.0 + w2) / 2.0),
            C("1 > v", 1.0, v),
            C("v > 1 - u + w2", v, 1.0 - u + w2),
            C("1 > w1", 1.0, w1),
            C("1 > w2", 1.0, w2),
            C("varsigma_zeta > 1 - u + max{w1, w2/2}", s_z, 1.0 - u + max(w1, w2 / 2.0)),
            C("varsigma_xi > 1 - u + v/2 - w2", s_x, 1.0 - u + v / 2.0 - w2),
            C("1 > varsigma_zeta", 1.0, s_z),
            C("1 > varsigma_xi", 1.0, s_x),
        ]
    elif regime == "T1-nonconvex":
        checks = [
            C("1 > u", 1.0, u),
            C("u > max{1/2, (1+2w2)/3}", u, max(0.5, (1.0 + 2.0 * w2) / 3.0)),
            C("1 > v", 1.0, v),
            C("v > (1-u)/2 + w2", v, (1.0 - u) / 2.0 + w2),
            C("1 > w1", 1.0, w1),
            C("1 > w2", 1.0, w2),
            C("varsigma_zeta > (1-u)/2 + max{w1, w2/2}", s_z, (1.0 - u) / 2.0 + max(w1, w2 / 2.0)),
            C("varsigma_xi > (1-u)/2 + v/2 - w2", s_x, (1.0 - u) / 2.0 + v / 2.0 - w2),
            C("1 > varsigma_zeta", 1.0, s_z),
            C("1 > varsigma_xi", 1.0, s_x),
        ]
    else:
        # all truthful regimes start from the T2 conditions
        checks = [
            C("u > w1 + w2 + hat-varsigma_xi + 1", u, w1 + w2 + s_x + 1.0),
            C("v > u - w1", v, u - w1),
            C("w1 > 1 + hat-varsigma_zeta", w1, 1.0 + s_z),
            C("1 > w2", 1.0, w2),
        ]
        if regime == "T3-sc":
            checks += [
                C("v > 1", v, 1.0),
                C("varsigma_zeta > max{0, (1-u)/2 + w1}", s_z, max(0.0, (1.0 - u) / 2.0 + w1)),
                C("1 > varsigma_xi", 1.0, s_x),
                C("varsigma_xi > max{-w2/2, 1/2 - w2}", s_x, max(-w2 / 2.0, 0.5 - w2)),
            ]
        elif regime == "T3-convex":
            checks += [
                C("v > 1", v, 1.0),
                C("varsigma_zeta > max{0, 1 - u + w1}", s_z, max(0.0, 1.0 - u + w1)),
                C("1 > varsigma_xi", 1.0, s_x),
                C("varsigma_xi > max{-w2/2, 1/2 - w2}", s_x, max(-w2 / 2.0, 0.5 - w2)),
            ]
        elif regime == "T3-nonconvex":
            checks += [
                C("v > max{1, u - w1}", v, max(1.0, u - w1)),
                C("varsigma_zeta > max{0, (1-u)/2 + w1}", s_z, max(0.0, (1.0 - u) / 2.0 + w1)),
                C("1 > varsigma_xi", 1.0, s_x),
                C("varsigma_xi > max{-w2/2, 1/2 - w2}", s_x, max(-w2 / 2.0, 0.5 - w2)),
            ]
    return RegimeConditions(regime=regime, checks=tuple(checks))


# ---------------------------------------------------------------------------
# sensitivities
# ---------------------------------------------------------------------------


def c1_constant(schedules: ScheduleSet, w_hat: float) -> float:
    u, _, w1, w2, *_ = _exponents(schedules)
    gamma2 = schedules.gamma2.base
    denom = w_hat * gamma2 - (u - w1 - w2)
    if denom <= 0:
        raise DenominatorNonpositive(
            f"w_hat*gamma2 = {w_hat * gamma2:.6g} must exceed u - w1 - w2 = {u - w1 - w2:.6g}"
        )
    return w_hat * gamma2 / denom


def c2_constant(schedules: ScheduleSet, w_hat: float) -> float:
    if not (0.0 < w_hat < 2.0):
        raise DagoptError(f"w_hat must be in (0, 2), got {w_hat}")
    w1 = schedules.gamma1.exponent
    return (4.0 * w1 / (math.e * math.log(2.0 / (2.0 - w_hat)))) ** w1 * (2.0 / w_hat)


def sensitivity_psi(t: int, schedules: ScheduleSet, w_hat: float) -> float:
    """Closed-form bound c1 lambda_t / (gamma_{t,1} gamma_{t,2}) on the
    aggregate-tracker sensitivity."""
    c1 = c1_constant(schedules, w_hat)
    return c1 * schedules.lam.value(t) / (schedules.gamma1.value(t) * schedules.gamma2.value(t))


def sensitivity_y(t: int, schedules: ScheduleSet, w_hat: float) -> float:
    """Closed-form bound c2 gamma_{t,1} on the gradient-tracker sensitivity."""
    c2 = c2_constant(schedules, w_hat)
    return c2 * schedules.gamma1.value(t)


# ---------------------------------------------------------------------------
# epsilon / eta / calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    eps_psi: float  # contribution of the aggregate-tracker mechanism
    eps_y: float  # contribution of the gradient-tracker mechanism


def epsilon(T: int | None, schedules: ScheduleSet, W: WeightMatrix | float) -> PrivacyReport:
    """Cumulative privacy budget over t = 1..T (T=None for the infinite
    horizon, evaluated exactly via the Hurwitz zeta function); raises
    RegimeViolation outside the T2-truthful regime."""
    w_hat = W.w_hat if isinstance(W, WeightMatrix) else float(W)
    regime = check_regime(schedules, "T2-truthful")
    if not regime.passed:
        fails = "; ".join(f"{c.name} ({c.left:.4g} vs {c.right:.4g})" for c in regime.failures())
        raise RegimeViolation(f"T2-truthful regime fails: {fails} — budget would not be certified finite")
    u, _, w1, w2, s_z, s_x = _exponents(schedules)
    p_psi, p_y = u - w1 - w2 - s_x, w1 - s_z  # psi-mechanism, y-mechanism
    if T is None and (p_psi <= 1.0 or p_y <= 1.0):
        raise RegimeViolation("infinite-horizon budget requires both series exponents > 1")
    # series coefficients sqrt(2) Delta_0 / sigma: every profile is its base at t = 0
    A_psi = math.sqrt(2.0) * sensitivity_psi(0, schedules, w_hat) / schedules.xi.base
    A_y = math.sqrt(2.0) * sensitivity_y(0, schedules, w_hat) / schedules.zeta.base

    if T is not None:
        eps_psi = math.fsum(A_psi / (t + 1.0) ** p_psi for t in range(1, T + 1))
        eps_y = math.fsum(A_y / (t + 1.0) ** p_y for t in range(1, T + 1))
    else:
        # sum_{t>=1} (t+1)^{-q} = zeta(q, 2) (Hurwitz zeta), exact limit
        from scipy.special import zeta as hurwitz_zeta

        eps_psi = A_psi * float(hurwitz_zeta(p_psi, 2.0))
        eps_y = A_y * float(hurwitz_zeta(p_y, 2.0))
    return PrivacyReport(epsilon=eps_psi + eps_y, eps_psi=eps_psi, eps_y=eps_y)


@dataclass(frozen=True)
class EtaReport:
    eta: float
    intrinsic: float
    privacy_term: float
    linearization_exceeded: bool


def eta(eps: float, L_f1: float, L_f2: float, L_g: float, D_X: float, D_f: float) -> EtaReport:
    """Truthfulness bound eta = (L_f1 + L_f2 L_g) D_X + 2 eps D_f."""
    intrinsic = (L_f1 + L_f2 * L_g) * D_X
    privacy_term = 2.0 * eps * D_f
    return EtaReport(
        eta=intrinsic + privacy_term,
        intrinsic=intrinsic,
        privacy_term=privacy_term,
        linearization_exceeded=not (0.0 < eps < 1.0),
    )


def calibrate_noise(target_epsilon: float, T: int, schedules: ScheduleSet, W: WeightMatrix | float):
    """Noise bases (sigma_xi, sigma_zeta) achieving the target budget at
    horizon T, splitting it evenly between the two mechanisms.  Each
    mechanism's budget is inversely proportional to its noise base, so

        sigma_xi'   = 2 eps_psi sigma_xi   / target
        sigma_zeta' = 2 eps_y   sigma_zeta / target
    """
    if not (target_epsilon > 0):
        raise ValueError("target epsilon must be > 0")
    report = epsilon(T, schedules, W)
    return (
        2.0 * report.eps_psi * schedules.xi.base / target_epsilon,
        2.0 * report.eps_y * schedules.zeta.base / target_epsilon,
    )
