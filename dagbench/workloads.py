"""The benchmark's workloads and the correctness checks on their outputs.

Each workload is an INI config run the way ``dagopt run`` runs it: parsed
by ``dagopt.harness.parse_config``, executed by the matching public
``run_*_experiment`` entry point, then written by ``emit_outputs``.

``--seed`` picks the instance, never the workload's shape: it is the
topology seed of the random 4-regular graph in every workload and, for the
synthetic problem, also the problem-data seed.  The noise seeds of the
experiment (``[experiment] seeds``) are fixed per workload.

The checks compare the outputs against computations written here from the
problem data, or against properties the method must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

BOX_TOL = 1e-12  # schedules may sit on a bound, never beyond it
BUDGET_TOL = 1e-8  # |1'x_i - E_i|, the projection polishes to ~1e-10
KKT_TOL = 1e-6  # relative to the largest marginal price
ERR_DROP = 0.5  # err_x(T) must be below this share of err_x(0)
SLOPE_MAX = -1.0  # Corollary 1 rate on [T/10, T] (criterion 04)
LBFGSB_TOL = 1e-6  # max |x*_oracle - x*_lbfgsb|


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # T, or truthful_T for the truthfulness experiment
    ini: str  # config template; {seed} and {rounds} are filled in


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ev-m1000",
            rounds=60,
            ini="""
[experiment]
kind = convergence
T = {rounds}
stride = 10
seeds = 0
workers = 1
[problem]
problem = ev
m = 1000
[topology]
topology = k-regular
degree = 4
edge_weight = 0.12
topology_seed = {seed}
[schedules]
preset = sec5-convergence
""",
        ),
        Workload(
            name="sc-m10-5seeds",
            rounds=1500,
            ini="""
[experiment]
kind = convergence
T = {rounds}
stride = 10
seeds = 0,1,2,3,4
workers = 1
[problem]
problem = strongly-convex
m = 10
problem_seed = {seed}
[topology]
topology = k-regular
degree = 4
edge_weight = 0.12
topology_seed = {seed}
[schedules]
preset = corollary1-sc
""",
        ),
        Workload(
            name="truthful-ev-m20",
            rounds=250,
            ini="""
[experiment]
kind = truthfulness
seeds = 0,1,2,3,4
workers = 1
[problem]
problem = ev
m = 20
[topology]
topology = k-regular
degree = 4
edge_weight = 0.12
topology_seed = {seed}
[schedules]
preset = sec5-truthful
[truthfulness]
truthful_T = {rounds}
""",
        ),
    )
}


def config_text(w: Workload, seed: int, rounds: int | None = None) -> str:
    return w.ini.format(seed=seed, rounds=w.rounds if rounds is None else rounds)


def run_experiment(harness, cfg):
    """The experiment step of ``dagopt run`` for the config's kind."""
    if cfg.kind == "convergence":
        return harness.run_convergence_experiment(cfg)
    if cfg.kind == "truthfulness":
        scenario = harness.AdjacentScenario(
            agents=cfg.untruthful_agents, shift_fraction=cfg.shift_fraction, pivot_slot=cfg.pivot_slot
        )
        return harness.run_truthfulness_experiment(cfg, scenario)
    raise ValueError(f"workload kind {cfg.kind!r} is not benchmarked")


# ---------------------------------------------------------------------------
# operations: one engine.run call each
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One captured ``engine.run`` call: what the harness passed and got."""

    oracle: object
    result: object
    seconds: float  # wall time of the call: the integrator rounds and their records
    problems: list[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return self.result.final_state.t

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Capture:
    """Wraps ``dagopt.engine.run`` to keep each call's oracle, result and
    wall time, so that the final iterates can be checked and the integrator
    timed apart from set-up; one clock pair per call, nothing inside it."""

    def __init__(self, engine):
        self.ops: list[Op] = []
        self._engine = engine
        self._original = engine.run

        def run(state, T, *args, **kwargs):
            t0 = time.perf_counter()
            result = self._original(state, T, *args, **kwargs)
            self.ops.append(Op(kwargs.get("oracle"), result, time.perf_counter() - t0))
            return result

        engine.run = run

    def take(self) -> list[Op]:
        ops, self.ops = self.ops, []
        return ops

    def close(self) -> None:
        self._engine.run = self._original


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def ev_schedule_problems(x: np.ndarray, spec) -> list[str]:
    """Box [0, x_max] and energy budget 1'x_i = E_i of every EV schedule."""
    out = []
    if not np.all(np.isfinite(x)):
        return ["schedule has non-finite entries"]
    low = float((-x).max())
    high = float((x - spec.x_max).max())
    if low > BOX_TOL or high > BOX_TOL:
        out.append(f"schedule leaves the rate box by {max(low, high):.3e}")
    budget = float(np.abs(x.sum(axis=1) - spec.E).max())
    if budget > BUDGET_TOL:
        out.append(f"energy budget missed by {budget:.3e}")
    return out


def ev_kkt_residual(x: np.ndarray, spec) -> float:
    """Largest KKT violation of the valley-filling optimum, relative to the
    largest marginal price.

    With the capacity-normalized load phi = sum_i (x_i + d_i) / C_tot and
    price p(r) = c r^e, every agent sees the same marginal cost
    dF/dx_i = p(phi) + p'(phi) * phi.  At a minimizer each agent has one
    multiplier mu_i: coordinates strictly inside (0, x_max) price at mu_i,
    coordinates at 0 at least mu_i, coordinates at x_max at most mu_i."""
    c, e = spec.price_coeff, spec.price_exp
    phi = (x + spec.d).sum(axis=0) / spec.C_tot
    grad = c * phi**e + c * e * phi ** (e - 1.0) * phi
    edge = 1e-9 * float(spec.x_max.max())
    worst = 0.0
    for i in range(x.shape[0]):
        at_lo = x[i] <= edge
        at_hi = x[i] >= spec.x_max[i] - edge
        free = ~(at_lo | at_hi)
        if free.any():
            mu = float(np.median(grad[free]))
            worst = max(worst, float(np.abs(grad[free] - mu).max()),
                        float((mu - grad[at_lo]).max(initial=0.0)), float((grad[at_hi] - mu).max(initial=0.0)))
        elif at_lo.any() and at_hi.any():
            # any mu between the dearest full slot and the cheapest empty one will do
            worst = max(worst, float(grad[at_hi].max() - grad[at_lo].min()))
    return worst / float(np.abs(grad).max())


def sc_lbfgsb_solution(meta: dict) -> np.ndarray:
    """Minimizer of the strongly-convex synthetic F over [-1, 1]^(m n),
    solved by scipy's L-BFGS-B from the instance data alone:

        F(x) = sum_i 0.5 ||x_i - a_i||^2 + 0.5 ||phi - b_i||^2,
        phi  = (1/m) sum_i (A_i x_i + c_i).

    The psi clamp of the program is inactive on the box (its domain is the
    image of g widened by a margin), so it is left out here."""
    from scipy.optimize import minimize

    a, b, A, c = meta["a"], meta["b"], meta["A"], meta["c"]
    m, n = a.shape

    def fun(flat):
        x = flat.reshape(m, n)
        phi = (np.einsum("idn,in->d", A, x) + c.sum(axis=0)) / m
        r = phi[None, :] - b
        val = 0.5 * float(((x - a) ** 2).sum()) + 0.5 * float((r**2).sum())
        grad = (x - a) + np.einsum("idn,d->in", A, r.sum(axis=0)) / m
        return val, grad.ravel()

    res = minimize(fun, np.zeros(m * n), jac=True, method="L-BFGS-B", bounds=[(-1.0, 1.0)] * (m * n),
                   options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 10_000})
    return res.x.reshape(m, n)


def check_ev_convergence(summary, ops: list[Op]) -> list[str]:
    """ev-m1000: feasible final schedules, a KKT-optimal oracle, err_x
    falling well below its start."""
    issues = []
    for op in ops:
        spec = op.result.final_state.problem.meta["spec"]
        op.problems += ev_schedule_problems(op.result.final_state.x, spec)
        recs = op.result.records
        if not recs[-1].err_x < ERR_DROP * recs[0].err_x:
            op.problems.append(f"err_x {recs[0].err_x:.4g} -> {recs[-1].err_x:.4g} did not halve")
    if ops:
        spec = ops[0].result.final_state.problem.meta["spec"]
        x_star = ops[0].oracle.x_star
        issues += [f"oracle: {p}" for p in ev_schedule_problems(x_star, spec)]
        kkt = ev_kkt_residual(x_star, spec)
        if not kkt <= KKT_TOL:
            issues.append(f"oracle KKT residual {kkt:.3e} > {KKT_TOL:g}")
    return issues


def check_sc_convergence(summary, ops: list[Op]) -> list[str]:
    """sc-m10-5seeds: Corollary-1 slope, iterates in the box, and the
    oracle's x* equal to an L-BFGS-B solve."""
    issues = []
    for op in ops:
        x = op.result.final_state.x
        if not (np.all(np.isfinite(x)) and np.abs(x).max() <= 1.0 + BOX_TOL):
            op.problems.append("final iterate leaves the box [-1, 1]")
    if not summary.slope <= SLOPE_MAX:
        issues.append(f"seed-mean log-log slope {summary.slope:.4f} > {SLOPE_MAX}")
    if ops:
        meta = ops[0].result.final_state.problem.meta
        gap = float(np.abs(ops[0].oracle.x_star - sc_lbfgsb_solution(meta)).max())
        if not gap <= LBFGSB_TOL:
            issues.append(f"oracle x* differs from L-BFGS-B by {gap:.3e}")
    return issues


def check_truthfulness(summary, ops: list[Op]) -> list[str]:
    """truthful-ev-m20: feasible final schedules, noise-injected median
    gain below the noise-free conventional one, every gain <= eta."""
    issues = []
    for op in ops:
        spec = op.result.final_state.problem.meta["spec"]
        op.problems += ev_schedule_problems(op.result.final_state.x, spec)
    gains_alg1 = [row[1] for row in summary.rows]
    gains_naive = [row[2] for row in summary.rows]
    if not float(np.median(gains_alg1)) < float(np.median(gains_naive)):
        issues.append(f"median gain {np.median(gains_alg1):.6g} (noise-injected) is not below "
                      f"{np.median(gains_naive):.6g} (noise-free conventional)")
    over = [(row[0], row[1]) for row in summary.rows if not row[1] <= summary.eta]
    if over or not math.isfinite(summary.eta):
        issues.append(f"gains above eta={summary.eta:.6g}: {over}")
    return issues


CHECKS = {
    "ev-m1000": check_ev_convergence,
    "sc-m10-5seeds": check_sc_convergence,
    "truthful-ev-m20": check_truthfulness,
}


def check_experiment(name: str, summary, ops: list[Op]) -> list[str]:
    """Mark diverged operations, then run the workload's own checks; returns
    the failures of checks on the whole experiment (per-operation failures
    go to ``Op.problems``)."""
    for op in ops:
        if op.result.diverged_at is not None:
            op.problems.append(f"diverged at t={op.result.diverged_at}")
    return CHECKS[name](summary, ops)

