"""Joint-differential-privacy budget and truthfulness-bound accounting.

The cumulative budget over T iterations is

    eps(T) = sum_{t=1}^{T} [ sqrt(2) c1 lambda0 / (min_i sigma_xi^i  gamma1 gamma2 (t+1)^{u-w1-w2-max_i varsigma_xi})
                           + sqrt(2) c2 gamma1  / (min_i sigma_zeta^i          (t+1)^{w1-max_i varsigma_zeta}) ]

with c1 = w_hat*gamma2 / (w_hat*gamma2 - (u - w1 - w2)) and
c2 = (4 w1 / (e ln(2/(2 - w_hat))))^{w1} * 2/w_hat, where w_hat = min_i |w_ii|.
Both series converge because the truthful regime forces both exponents > 1.

The truthfulness bound is eta = (L_f1 + L_f2 L_g) D_X + 2 eps D_f; the
2*eps factor comes from linearizing e^eps <= 1 + 2 eps, valid for eps < 1
(outside that range eta is still reported, with a flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DenominatorNonpositive, InvalidW, RegimeViolation
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
    zeta_exps = [p.exponent for p in schedules.noise.profiles(0)]
    xi_exps = [p.exponent for p in schedules.noise.profiles(1)]
    # varsigma = min over agents, hat-varsigma = max over agents
    return u, v, w1, w2, min(zeta_exps), min(xi_exps), max(zeta_exps), max(xi_exps)


def check_regime(schedules: ScheduleSet, regime: str) -> RegimeConditions:
    """Evaluate the selected regime's parameter inequalities, itemized."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")
    u, v, w1, w2, s_z, s_x, sh_z, sh_x = _exponents(schedules)
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
            C("1 > varsigma_zeta", 1.0, sh_z),
            C("1 > varsigma_xi", 1.0, sh_x),
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
            C("1 > varsigma_zeta", 1.0, sh_z),
            C("1 > varsigma_xi", 1.0, sh_x),
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
            C("1 > varsigma_zeta", 1.0, sh_z),
            C("1 > varsigma_xi", 1.0, sh_x),
        ]
    else:
        # all truthful regimes start from the T2 conditions
        checks = [
            C("u > w1 + w2 + hat-varsigma_xi + 1", u, w1 + w2 + sh_x + 1.0),
            C("v > u - w1", v, u - w1),
            C("w1 > 1 + hat-varsigma_zeta", w1, 1.0 + sh_z),
            C("1 > w2", 1.0, w2),
        ]
        if regime == "T3-sc":
            checks += [
                C("v > 1", v, 1.0),
                C("varsigma_zeta > max{0, (1-u)/2 + w1}", s_z, max(0.0, (1.0 - u) / 2.0 + w1)),
                C("1 > varsigma_xi", 1.0, sh_x),
                C("varsigma_xi > max{-w2/2, 1/2 - w2}", s_x, max(-w2 / 2.0, 0.5 - w2)),
            ]
        elif regime == "T3-convex":
            checks += [
                C("v > 1", v, 1.0),
                C("varsigma_zeta > max{0, 1 - u + w1}", s_z, max(0.0, 1.0 - u + w1)),
                C("1 > varsigma_xi", 1.0, sh_x),
                C("varsigma_xi > max{-w2/2, 1/2 - w2}", s_x, max(-w2 / 2.0, 0.5 - w2)),
            ]
        elif regime == "T3-nonconvex":
            checks += [
                C("v > max{1, u - w1}", v, max(1.0, u - w1)),
                C("varsigma_zeta > max{0, (1-u)/2 + w1}", s_z, max(0.0, (1.0 - u) / 2.0 + w1)),
                C("1 > varsigma_xi", 1.0, sh_x),
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
        raise InvalidW(f"w_hat must be in (0, 2), got {w_hat}")
    w1 = schedules.gamma1.exponent
    return (4.0 * w1 / (math.e * math.log(2.0 / (2.0 - w_hat)))) ** w1 * (2.0 / w_hat)


def sensitivity_psi(t: int, schedules: ScheduleSet, w_hat: float) -> float:
    """Closed-form bound c1 lambda_t / (gamma_{t,1} gamma_{t,2}) on the
    aggregate-tracker sensitivity."""
    c1 = c1_constant(schedules, w_hat)
    return c1 * schedules.lam.value(t) / (schedules.gamma1.value(t) * schedules.gamma2.value(t))


def sensitivity_psi_recursion(T: int, schedules: ScheduleSet, w_hat: float, forcing_const: float = 1.0) -> np.ndarray:
    """Numeric iteration of the sensitivity recursion

        Delta_{t+1} <= (1 - gamma_{t,2} w_hat) Delta_t + forcing_const * lambda_t / gamma_{t,1}

    from Delta_0 = 0, for cross-checking the closed form (which absorbs the
    forcing constant; compare after scaling by it)."""
    out = np.zeros(T + 1)
    for t in range(T):
        a_t = schedules.gamma2.value(t) * w_hat
        b_t = forcing_const * schedules.lam.value(t) / schedules.gamma1.value(t)
        out[t + 1] = (1.0 - a_t) * out[t] + b_t
    return out


def sensitivity_y(t: int, schedules: ScheduleSet, w_hat: float) -> float:
    """Closed-form bound c2 gamma_{t,1} on the gradient-tracker sensitivity."""
    c2 = c2_constant(schedules, w_hat)
    return c2 * schedules.gamma1.value(t)


def sensitivity_y_recursion(T: int, schedules: ScheduleSet, w_hat: float, forcing_const: float = 1.0) -> np.ndarray:
    """Numeric iteration of Delta_{t+1} <= (1 - w_hat) Delta_t + forcing_const * gamma_{t,1}."""
    out = np.zeros(T + 1)
    for t in range(T):
        out[t + 1] = (1.0 - w_hat) * out[t] + forcing_const * schedules.gamma1.value(t)
    return out


# ---------------------------------------------------------------------------
# epsilon / eta / calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    eps_psi: float  # contribution of the aggregate-tracker mechanism
    eps_y: float  # contribution of the gradient-tracker mechanism


def _min_base(profiles) -> float:
    return min(p.base for p in profiles)


def _series_exponents(schedules: ScheduleSet):
    u, _, w1, w2, _, _, sh_z, sh_x = _exponents(schedules)
    return u - w1 - w2 - sh_x, w1 - sh_z  # psi-mechanism, y-mechanism


def epsilon(
    T: int | None,
    schedules: ScheduleSet,
    W: WeightMatrix | float,
    require_regime: bool = True,
) -> PrivacyReport:
    """Cumulative privacy budget over t = 1..T (T=None for the infinite
    horizon, evaluated exactly via the Hurwitz zeta function)."""
    w_hat = W.w_hat if isinstance(W, WeightMatrix) else float(W)
    regime = check_regime(schedules, "T2-truthful")
    if require_regime and not regime.passed:
        fails = "; ".join(f"{c.name} ({c.left:.4g} vs {c.right:.4g})" for c in regime.failures())
        raise RegimeViolation(f"T2-truthful regime fails: {fails} — budget would not be certified finite")
    p_psi, p_y = _series_exponents(schedules)
    if T is None and (p_psi <= 1.0 or p_y <= 1.0):
        raise RegimeViolation("infinite-horizon budget requires both series exponents > 1")
    c1 = c1_constant(schedules, w_hat)
    c2 = c2_constant(schedules, w_hat)
    sig_xi = _min_base(schedules.noise.profiles(1))
    sig_zeta = _min_base(schedules.noise.profiles(0))
    A_psi = math.sqrt(2.0) * c1 * schedules.lam.base / (sig_xi * schedules.gamma1.base * schedules.gamma2.base)
    A_y = math.sqrt(2.0) * c2 * schedules.gamma1.base / sig_zeta

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
    horizon T, splitting it evenly between the two mechanisms:

        sigma_xi   = sum_{t=1}^T 2 sqrt(2) c1 lambda0 / (eps gamma1 gamma2 (t+1)^{u-w1-w2-hat_xi})
        sigma_zeta = sum_{t=1}^T 2 sqrt(2) c2 gamma1  / (eps (t+1)^{w1-hat_zeta})
    """
    if not (target_epsilon > 0):
        raise ValueError("target epsilon must be > 0")
    regime = check_regime(schedules, "T2-truthful")
    if not regime.passed:
        raise RegimeViolation("calibration requires a passing T2-truthful regime")
    w_hat = W.w_hat if isinstance(W, WeightMatrix) else float(W)
    c1 = c1_constant(schedules, w_hat)
    c2 = c2_constant(schedules, w_hat)
    p_psi, p_y = _series_exponents(schedules)
    S_psi = math.fsum((t + 1.0) ** (-p_psi) for t in range(1, T + 1))
    S_y = math.fsum((t + 1.0) ** (-p_y) for t in range(1, T + 1))
    lam0, g1, g2 = schedules.lam.base, schedules.gamma1.base, schedules.gamma2.base
    sigma_xi = 2.0 * math.sqrt(2.0) * c1 * lam0 * S_psi / (target_epsilon * g1 * g2)
    sigma_zeta = 2.0 * math.sqrt(2.0) * c2 * g1 * S_y / target_epsilon
    return sigma_xi, sigma_zeta


# ---------------------------------------------------------------------------
# recursion-taming bound checker (the workhorse behind the sensitivity
# closed forms): Phi_{t+1} <= (1 - a0/(t+1)^a) Phi_t + b0/(t+1)^b
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma2Draw:
    case: str  # "i" or "ii"
    a0: float
    b0: float
    a: float
    b: float
    phi0: float
    max_ratio: float  # max over t of Phi_t / bound_t
    violated: bool


def _iterate_phi(a0, b0, a, b, phi0, T):
    t_arr = np.arange(T + 1, dtype=float) + 1.0
    a_t = a0 / t_arr**a
    b_t = b0 / t_arr**b
    phi = np.empty(T + 1)
    phi[0] = phi0
    for t in range(T):
        phi[t + 1] = (1.0 - a_t[t]) * phi[t] + b_t[t]
    return t_arr, a_t, b_t, phi

def check_lemma2_case_i(a0, b0, a, b, phi0, T) -> Lemma2Draw:
    """Bound: Phi_t <= c_Phi b_t / a_t, c_Phi = (a0/b0) max{Phi0, b0/(a0-(b-a))}.

    Hypotheses: 1 > a > 0, b > a, b0 > 0, 1 >= a0 > b - a."""
    t_arr, a_t, b_t, phi = _iterate_phi(a0, b0, a, b, phi0, T)
    c_phi = (a0 / b0) * max(phi0, b0 / (a0 - (b - a)))
    bound = c_phi * b_t / a_t
    ratio = float((phi / bound).max())
    return Lemma2Draw("i", a0, b0, a, b, phi0, ratio, ratio > 1.0 + 1e-12)


def check_lemma2_case_ii(a0, b0, a, b, phi0, T) -> Lemma2Draw:
    """Bound: Phi_t <= Phi0 exp(-a0 (1-(t+1)^{-(a-1)})/(a-1)) + b0 b/(b-1).

    Hypotheses: a > 1, b > 1, b0 > 0, 1 >= a0 > 0.  This is the repaired
    form of the summable-coefficient case: the decay factor carries the a0
    scaling and the forcing sum is bounded by its integral estimate
    sum b_t <= b0 * b/(b-1) (see the decisions ledger)."""
    t_arr, a_t, b_t, phi = _iterate_phi(a0, b0, a, b, phi0, T)
    decay = np.exp(-a0 * (1.0 - t_arr ** (-(a - 1.0))) / (a - 1.0))
    bound = phi0 * decay + b0 * b / (b - 1.0)
    ratio = float((phi / np.maximum(bound, 1e-300)).max())
    return Lemma2Draw("ii", a0, b0, a, b, phi0, ratio, ratio > 1.0 + 1e-12)


def check_lemma2_bounds(draws: int, horizon: int, seed: int = 0) -> list[Lemma2Draw]:
    """Seeded random hypothesis-satisfying draws for both cases; parameters
    violating a hypothesis are rejected at generation."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    results: list[Lemma2Draw] = []
    for k in range(draws):
        phi0 = 0.0 if rng.uniform() < 0.2 else float(10.0 ** rng.uniform(-3, 2))
        b0 = float(10.0 ** rng.uniform(-3, 1))
        if k % 2 == 0:  # case (i)
            while True:
                a = float(rng.uniform(0.05, 0.95))
                b = float(rng.uniform(a + 0.02, a + 0.9))
                lo = max(b - a, 0.0)
                if lo < 0.98:
                    break
            a0 = float(rng.uniform(lo + 0.01, 1.0))
            results.append(check_lemma2_case_i(a0, b0, a, b, phi0, horizon))
        else:  # case (ii)
            a = float(rng.uniform(1.05, 3.0))
            b = float(rng.uniform(1.05, 3.0))
            a0 = float(rng.uniform(0.01, 1.0))
            results.append(check_lemma2_case_ii(a0, b0, a, b, phi0, horizon))
    return results
