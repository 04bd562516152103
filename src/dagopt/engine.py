"""Synchronous-rounds execution of the noise-injected tracking algorithm.

One round at iteration t performs, with barriers between the three phases:

  (line 4)  y^i_{t+1} = (1 + w_ii) y^i_t + sum_{j in N_i} w_ij P_{Omega_t}(y^j_t + zeta^j_t)
                        + gamma_{t,1} grad2_f_i(x^i_t, psi^i_t)
  (line 5)  x^i_{t+1} = P_{X_i}( x^i_t - lambda_t [ grad1_f_i(x^i_t, psi^i_t)
                        + grad_g_i(x^i_t) (y^i_{t+1} - y^i_t) / gamma_{t,1} ] )
  (line 7)  psi^i_{t+1} = (1 - alpha_t + gamma_{t,2} w_ii) psi^i_t
                        + gamma_{t,2} sum_{j in N_i} w_ij (psi^j_t + xi^j_t)
                        + g_i(x^i_{t+1}) - (1 - alpha_t) g_i(x^i_t)

Broadcast noise semantics: the sender draws one noise vector per iteration
and every receiver sees the same obscured value, so there is exactly one
zeta (and one xi) draw per (agent, iteration), keyed deterministically.

The conventional gradient-tracking baseline (step_baseline) mixes with
A = I + W, feeds y directly into the decision update, uses a constant
stepsize, and has no projection ball / decaying attenuation — it is the
noise-vulnerable reference for the robustness comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .network import WeightMatrix
from .problems.base import AggregativeProblem, F_grad, F_value, aggregate
from .problems.oracle import OracleSolution
from .schedules import TAG_XI, TAG_ZETA, BallRadiusTracker, ScheduleSet, noise_vector

DIVERGENCE_THRESHOLD = 1e12


@dataclass
class RunState:
    problem: AggregativeProblem
    W: WeightMatrix
    schedules: ScheduleSet
    seed: int
    noise_enabled: bool
    t: int
    x: np.ndarray  # (m, n)
    y: np.ndarray  # (m, d)
    psi: np.ndarray  # (m, d)
    g_cache: np.ndarray  # g(x_t), (m, d)
    radius: BallRadiusTracker
    grad2_cache: np.ndarray = None  # used by the baseline stepper only
    diverged_at: int | None = None


@dataclass
class MetricsRecord:
    t: int
    err_x: float
    gap_F: float
    grad_norm_sq: float
    psi_consensus: float
    y_consensus: float
    grad_est_err: float
    weighted_avg_gap: float
    weighted_avg_grad: float
    err_x_agent_max: float = 0.0
    diverged: bool = False


CSV_COLUMNS = (
    "t",
    "err_x",
    "gap_F",
    "grad_norm_sq",
    "psi_consensus",
    "y_consensus",
    "grad_est_err",
    "weighted_avg_gap",
    "weighted_avg_grad",
)


def init_run(
    problem: AggregativeProblem,
    W: WeightMatrix,
    schedules: ScheduleSet,
    seed: int,
    x0_policy: str = "project-zero",
    noise_enabled: bool = True,
) -> RunState:
    """x0 per policy (projected feasible), psi0 = g(x0), y0 = grad2_f(x0, psi0)."""
    if W.m != problem.m:
        raise DimensionMismatch(f"W is {W.m}x{W.m} but problem has m={problem.m}")
    if schedules.noise.dim != problem.d:
        raise DimensionMismatch(f"noise dim {schedules.noise.dim} != aggregate dim {problem.d}")
    m, n = problem.m, problem.n
    if x0_policy == "project-zero":
        x0 = problem.eval_project_all(np.zeros((m, n)))
    elif x0_policy == "random-feasible":
        rng = np.random.Generator(np.random.Philox(key=(seed << 8) | 0x5A))
        x0 = problem.eval_project_all(rng.uniform(-1.0, 1.0, size=(m, n)))
    else:
        raise ValueError(f"unknown x0 policy {x0_policy!r}")
    psi0 = problem.eval_g_all(x0)
    y0 = problem.eval_grad2_all(x0, psi0)
    return RunState(
        problem=problem,
        W=W,
        schedules=schedules,
        seed=seed,
        noise_enabled=noise_enabled,
        t=0,
        x=x0,
        y=y0,
        psi=psi0.copy(),
        g_cache=psi0.copy(),
        radius=BallRadiusTracker(schedules.gamma1, problem.constants.L_f2),
        grad2_cache=y0.copy(),
    )


def _draw_noise(state: RunState, tag: int, t: int) -> np.ndarray:
    """One broadcast noise vector per sender, stacked (m, d)."""
    prob, sched = state.problem, state.schedules
    out = np.zeros((prob.m, prob.d))
    if not state.noise_enabled:
        return out
    for j in range(prob.m):
        profile = sched.noise.zeta_profile(j) if tag == TAG_ZETA else sched.noise.xi_profile(j)
        out[j] = noise_vector(state.seed, j, t, tag, profile.value(t), prob.d, enabled=True)
    return out


def _project_ball(points: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(points, axis=1)
    factor = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return points * factor[:, None]


def gradient_estimate(state: RunState, y_next: np.ndarray) -> np.ndarray:
    """Stacked search direction grad1_f + grad_g (y_{t+1} - y_t)/gamma_{t,1}."""
    gamma1_t = state.schedules.gamma1.value(state.t)
    inv = 1.0 / max(gamma1_t, 1e-300)
    incr = (y_next - state.y) * inv
    return state.problem.eval_grad1_all(state.x, state.psi) + state.problem.apply_grad_g_all(state.x, incr)


def _line4(state: RunState) -> np.ndarray:
    """Compute y_{t+1} for the current iteration (no state mutation)."""
    t = state.t
    gamma1_t = state.schedules.gamma1.value(t)
    radius = state.radius.radius()
    zeta = _draw_noise(state, TAG_ZETA, t)
    shared = _project_ball(state.y + zeta, radius)
    grad2 = state.problem.eval_grad2_all(state.x, state.psi)
    wdiag = state.W.diag()
    return (1.0 + wdiag)[:, None] * state.y + state.W.offdiag() @ shared + gamma1_t * grad2


def _line7(state: RunState, g_new: np.ndarray, alpha_t: float, gamma2_t: float) -> np.ndarray:
    """psi_{t+1} from the current state and g(x_{t+1}), with the xi noise
    keyed at the current iteration.  alpha_t = 0, gamma2_t = 1 gives the
    conventional tracker's update bit for bit (the extra terms become exact
    multiplications by 1 and subtractions of 0)."""
    xi = _draw_noise(state, TAG_XI, state.t)
    return (
        (1.0 - alpha_t + gamma2_t * state.W.diag())[:, None] * state.psi
        + gamma2_t * (state.W.offdiag() @ (state.psi + xi))
        + g_new
        - (1.0 - alpha_t) * state.g_cache
    )


def step(state: RunState) -> np.ndarray:
    """Advance one round in place; returns the stacked direction used in
    line 5 (the gradient estimate), for metrics."""
    sched = state.schedules
    lam_t = sched.lam.value(state.t)

    y_next = _line4(state)
    direction = gradient_estimate(state, y_next)
    x_next = state.problem.eval_project_all(state.x - lam_t * direction)

    g_new = state.problem.eval_g_all(x_next)
    psi_next = _line7(state, g_new, sched.alpha.value(state.t), sched.gamma2.value(state.t))

    _commit(state, x_next, y_next, psi_next, g_new)
    return direction


def step_baseline(state: RunState, lam: float = 0.01) -> np.ndarray:
    """Conventional gradient tracking (mixing A = I + W, constant stepsize).

    The tracker y is fed directly into the decision update; trackers carry
    increments of grad2_f / g with no damping or projection ball.  Noise is
    drawn from the same keyed streams as the main algorithm so robustness
    comparisons see identical noise."""
    t = state.t
    prob = state.problem
    wdiag = state.W.diag()
    woff = state.W.offdiag()

    direction = prob.eval_grad1_all(state.x, state.psi) + prob.apply_grad_g_all(state.x, state.y)
    x_next = prob.eval_project_all(state.x - lam * direction)

    g_new = prob.eval_g_all(x_next)
    psi_next = _line7(state, g_new, 0.0, 1.0)

    zeta = _draw_noise(state, TAG_ZETA, t)
    grad2_new = prob.eval_grad2_all(x_next, psi_next)
    y_next = (1.0 + wdiag)[:, None] * state.y + woff @ (state.y + zeta) + grad2_new - state.grad2_cache

    _commit(state, x_next, y_next, psi_next, g_new, grad2_new)
    return direction


def _commit(state, x_next, y_next, psi_next, g_new, grad2_new=None):
    if state.diverged_at is None:
        bad = False
        for arr in (x_next, y_next, psi_next):
            if not np.all(np.isfinite(arr)) or np.abs(arr).max() > DIVERGENCE_THRESHOLD:
                bad = True
                break
        if bad:
            state.diverged_at = state.t + 1
    state.x = x_next
    state.y = y_next
    state.psi = psi_next
    state.g_cache = g_new
    if grad2_new is not None:
        state.grad2_cache = grad2_new
    state.radius.advance()
    state.t += 1


@dataclass
class RunResult:
    records: list[MetricsRecord]
    final_state: RunState
    diverged_at: int | None
    weighted_avg_gap: float
    weighted_avg_grad: float


def run(
    state: RunState,
    T: int,
    stride: int = 1,
    oracle: OracleSolution | None = None,
    stepper: str = "alg1",
    baseline_lambda: float = 0.01,
    track_weighted: bool = True,
) -> RunResult:
    """T rounds with a metrics record every ``stride`` iterations (plus t=0
    and t=T).  Weighted averages sum lambda_t * metric / sum lambda_t are
    accumulated over every iteration.  On divergence the log is partial and
    flagged."""
    if T < 0:
        raise ValueError("T must be >= 0")
    prob = state.problem
    records: list[MetricsRecord] = []
    wsum = 0.0
    wgap = 0.0
    wgrad = 0.0
    # with no oracle (nonconvex problems) there is no F* to measure a gap from
    f_star = oracle.F_star if oracle is not None else math.nan

    def snapshot(t, x_now, psi_now, y_now, fval, gradF, direction):
        """Metrics for the pre-step state (x_t, psi_t, y_t); direction is the
        gradient estimate at x_t."""
        phi = aggregate(prob, x_now)
        if oracle is not None:
            diff = x_now - oracle.x_star
            err = float((diff * diff).sum())
            err_max = float((diff * diff).sum(axis=1).max())
        else:
            err, err_max = math.nan, math.nan
        psi_gap = psi_now - phi[None, :]
        y_gap = y_now - y_now.mean(axis=0)[None, :]
        ge = float(((direction - gradF) ** 2).sum()) if direction is not None else 0.0
        return MetricsRecord(
            t=t,
            err_x=err,
            gap_F=fval - f_star,
            grad_norm_sq=float((gradF**2).sum()),
            psi_consensus=float((psi_gap**2).sum()),
            y_consensus=float((y_gap**2).sum()),
            grad_est_err=ge,
            weighted_avg_gap=(wgap / wsum) if wsum > 0 else fval - f_star,
            weighted_avg_grad=(wgrad / wsum) if wsum > 0 else float((gradF**2).sum()),
            err_x_agent_max=err_max,
            diverged=state.diverged_at is not None,
        )

    for t_iter in range(T):
        record_now = (t_iter % stride == 0)
        pre = (state.x, state.psi, state.y)  # step replaces these arrays, never writes into them
        if record_now or track_weighted:
            fval = F_value(prob, state.x)
            gradF = F_grad(prob, state.x)
        if track_weighted:
            lam_t = state.schedules.lam.value(t_iter)
            wsum += lam_t
            wgap += lam_t * (fval - f_star)
            wgrad += lam_t * float((gradF**2).sum())
        if stepper == "alg1":
            direction = step(state)
        elif stepper == "baseline":
            direction = step_baseline(state, lam=baseline_lambda)
        else:
            raise ValueError(f"unknown stepper {stepper!r}")
        if record_now:
            records.append(snapshot(t_iter, *pre, fval, gradF, direction))
        if state.diverged_at is not None:
            # flag and stop: the log is partial by design
            if records:
                records[-1].diverged = True
            break
    if state.diverged_at is None:
        # terminal record at t = T; the gradient estimate uses a dry line-4
        # evaluation (noise keyed at iteration T, state not advanced)
        fval = F_value(prob, state.x)
        gradF = F_grad(prob, state.x)
        direction = gradient_estimate(state, _line4(state)) if T > 0 else None
        records.append(snapshot(state.t, state.x, state.psi, state.y, fval, gradF, direction))
    return RunResult(
        records=records,
        final_state=state,
        diverged_at=state.diverged_at,
        weighted_avg_gap=(wgap / wsum) if wsum > 0 else math.nan,
        weighted_avg_grad=(wgrad / wsum) if wsum > 0 else math.nan,
    )

