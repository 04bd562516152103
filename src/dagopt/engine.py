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
and every receiver sees the same obscured value.  A run owns one zeta stream
and one xi stream, both keyed by its seed and built for its (m, d) shape by
``init_run`` (``schedules.noise_streams``); each iteration takes the next
block of each, holding every sender's vector (row j is sender j).  Both
steppers draw both tags' blocks, through ``noise_vector``, at the top of the
round, so runs of one seed see the same zeta_t and xi_t whichever stepper
they use.  A stream refills several rounds' blocks at once by a vectorized
inverse-CDF pass over its Philox uniforms (``schedules.LaplaceStream``), and
a block does not depend on how many rounds a refill holds.

Both sent blocks [P_Omega(y + zeta), psi + xi] are mixed as one (2, m, d)
stack in one ``WeightMatrix.offdiag`` pass, and each schedule value is
evaluated once per round.  The terminal record's dry line 4 is the same
``_line4`` on the next zeta block alone.  At small m a round costs its numpy
calls' fixed overhead, so the round makes few: the run state holds w_ii and
1 + w_ii as (m, d) rows, the ball is tested on the largest squared row norm,
and reductions are ufunc calls, not ndarray method wrappers.

``run`` evaluates F(x_t) and grad F(x_t), which the records and the
lambda-weighted averages need, once per block of iterates rather than once
per round: it keeps a reference to each pre-step x_t and to the held g(x_t),
whose mean is phi(x_t) (``step`` replaces the state's arrays and never writes
into them), and stacks a block of B of them into one call; its weighted sums
are one ``np.add.accumulate`` and each record field one reduction.  B is
bounded by METRICS_BLOCK_ELEMENTS, so a block costs memory only where m is small.

The conventional gradient-tracking baseline (step_baseline) mixes with
A = I + W, feeds y directly into the decision update, uses a constant
stepsize, and has no projection ball / decaying attenuation — it is the
noise-vulnerable reference for the robustness comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DagoptError
from .network import WeightMatrix
from .problems.base import AggregativeProblem, F_grad, F_value
from .problems.oracle import OracleSolution
from .schedules import TAG_XI, TAG_ZETA, LaplaceStream, ScheduleSet, noise_streams, noise_vector

DIVERGENCE_THRESHOLD = 1e12
X0_POLICIES = ("project-zero", "random-feasible")
# Bound on the elements of one stacked block of iterates, B * m * max(n, d),
# that `run` evaluates F and grad F on in one call (see `metrics_block`).
METRICS_BLOCK_ELEMENTS = 16384


@dataclass
class RunState:
    problem: AggregativeProblem
    W: WeightMatrix
    schedules: ScheduleSet
    streams: tuple[LaplaceStream, LaplaceStream] | None  # (zeta, xi); None when noise-free
    t: int
    x: np.ndarray  # (m, n)
    y: np.ndarray  # (m, d)
    psi: np.ndarray  # (m, d)
    g_cache: np.ndarray  # g(x_t), (m, d)
    gamma1_sum: float = 0.0  # sum_{p<t} gamma_{p,1}: line 4's ball radius is (1 + gamma1_sum) * L_f2
    # W.diag and 1 + W.diag repeated into (m, d) rows, so that lines 4 and 7
    # multiply same-shape operands; built once per run by init_run
    w_diag: np.ndarray = None
    one_plus_w_diag: np.ndarray = None
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
    diverged: bool = False


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord) if f.name != "diverged")


def init_run(
    problem: AggregativeProblem,
    W: WeightMatrix,
    schedules: ScheduleSet,
    seed: int,
    x0_policy: str = "project-zero",
    noise_enabled: bool = True,
) -> RunState:
    """x0 per policy (projected feasible), psi0 = g(x0), y0 = grad2_f(x0, psi0).

    ``seed`` keys the run's noise streams (and x0 under random-feasible)."""
    if W.m != problem.m:
        raise DagoptError(f"W is {W.m}x{W.m} but problem has m={problem.m}")
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
        streams=noise_streams(seed, m, problem.d) if noise_enabled else None,
        t=0,
        x=x0,
        y=y0,
        psi=psi0.copy(),
        g_cache=psi0.copy(),
        w_diag=np.repeat(W.diag, problem.d, axis=1),
        one_plus_w_diag=np.repeat(W.one_plus_diag, problem.d, axis=1),
        grad2_cache=y0.copy(),
    )


def _draw_noise(state: RunState, tag: int, t: int) -> np.ndarray:
    """Every sender's broadcast noise vector at iteration t, stacked (m, d):
    the next block of the run's ``tag`` stream, which each round draws once."""
    if state.streams is None:
        return np.zeros(state.y.shape)
    profile = state.schedules.zeta if tag == TAG_ZETA else state.schedules.xi
    return noise_vector(state.streams[tag], profile.value(t))


def _project_ball(points: np.ndarray, radius: float) -> None:
    """Rescale in place the rows outside the ball; skipped when none is, as every factor would be 1.0.
    sqrt is monotone and correctly rounded, so the test's sqrt(max_i ||row_i||^2) is the largest row
    norm; a NaN row fails the test and takes the full path."""
    sq_norms = np.add.reduce(points * points, axis=1)
    if not math.sqrt(np.maximum.reduce(sq_norms)) <= radius:
        norms = np.sqrt(sq_norms)  # np.linalg.norm's bits in fewer calls
        points *= np.minimum(1.0, radius / np.maximum(norms, 1e-300))[:, None]


def _broadcasts(state: RunState, zeta: np.ndarray, xi: np.ndarray | None) -> np.ndarray:
    """The stack [y + zeta, psi + xi] for one ``offdiag`` pass; [y + zeta] without xi."""
    sent = np.empty((1 if xi is None else 2,) + state.y.shape)
    np.add(state.y, zeta, out=sent[0])
    if xi is not None:
        np.add(state.psi, xi, out=sent[1])
    return sent


def gradient_estimate(state: RunState, y_next: np.ndarray, gamma1_t: float) -> np.ndarray:
    """Stacked search direction grad1_f + grad_g (y_{t+1} - y_t)/gamma_{t,1}."""
    inv = 1.0 / max(gamma1_t, 1e-300)
    incr = (y_next - state.y) * inv
    return state.problem.eval_grad1_all(state.x, state.psi) + state.problem.apply_grad_g_all(state.x, incr)


def _line4(state: RunState, gamma1_t: float, xi: np.ndarray | None = None):
    """(y_{t+1}, its line-5 direction, offdiag of [P_ball(y + zeta), psi + xi]) on the next zeta block,
    without mutating the state; without xi (the terminal record's dry line 4) the stack is [P_ball(y + zeta)]."""
    sent = _broadcasts(state, _draw_noise(state, TAG_ZETA, state.t), xi)
    _project_ball(sent[0], (1.0 + state.gamma1_sum) * state.problem.constants.L_f2)
    mixed = state.W.offdiag(sent)
    grad2 = state.problem.eval_grad2_all(state.x, state.psi)
    y_next = state.one_plus_w_diag * state.y + mixed[0] + gamma1_t * grad2
    return y_next, gradient_estimate(state, y_next, gamma1_t), mixed


def _line7(state: RunState, mixed_psi: np.ndarray, g_new: np.ndarray, alpha_t: float, gamma2_t: float) -> np.ndarray:
    """psi_{t+1} from the current state, ``mixed_psi`` = offdiag(psi + xi) and
    g(x_{t+1}).  alpha_t = 0, gamma2_t = 1 gives the conventional tracker's
    update bit for bit (exact multiplications by 1 and subtractions of 0)."""
    return (
        (1.0 - alpha_t + gamma2_t * state.w_diag) * state.psi
        + gamma2_t * mixed_psi
        + g_new
        - (1.0 - alpha_t) * state.g_cache
    )


def step(state: RunState) -> np.ndarray:
    """Advance one round in place; returns the stacked direction used in
    line 5 (the gradient estimate), for metrics."""
    t, sched, prob = state.t, state.schedules, state.problem
    gamma1_t = sched.gamma1.value(t)
    y_next, direction, mixed = _line4(state, gamma1_t, _draw_noise(state, TAG_XI, t))
    x_next = prob.eval_project_all(state.x - sched.lam.value(t) * direction)

    g_new = prob.eval_g_all(x_next)
    psi_next = _line7(state, mixed[1], g_new, sched.alpha.value(t), sched.gamma2.value(t))

    state.gamma1_sum += gamma1_t
    _commit(state, x_next, y_next, psi_next, g_new)
    return direction


def step_baseline(state: RunState, lam: float = 0.01) -> np.ndarray:
    """Conventional gradient tracking (mixing A = I + W, constant stepsize).

    The tracker y is fed directly into the decision update; trackers carry
    increments of grad2_f / g with no damping or projection ball.  Each round
    draws one zeta and one xi block from the run's streams, as the main
    algorithm does, so robustness comparisons see identical noise."""
    t, prob = state.t, state.problem
    mixed = state.W.offdiag(_broadcasts(state, _draw_noise(state, TAG_ZETA, t), _draw_noise(state, TAG_XI, t)))

    direction = prob.eval_grad1_all(state.x, state.psi) + prob.apply_grad_g_all(state.x, state.y)
    x_next = prob.eval_project_all(state.x - lam * direction)

    g_new = prob.eval_g_all(x_next)
    psi_next = _line7(state, mixed[1], g_new, 0.0, 1.0)

    grad2_new = prob.eval_grad2_all(x_next, psi_next)
    y_next = state.one_plus_w_diag * state.y + mixed[0] + grad2_new - state.grad2_cache

    state.gamma1_sum += state.schedules.gamma1.value(t)
    _commit(state, x_next, y_next, psi_next, g_new, grad2_new)
    return direction


def _commit(state, x_next, y_next, psi_next, g_new, grad2_new=None):
    if state.diverged_at is None:
        for arr in (x_next, y_next, psi_next):
            # NaN propagates through max and fails the comparison, as inf does
            if not (np.maximum.reduce(np.abs(arr), axis=None) <= DIVERGENCE_THRESHOLD):
                state.diverged_at = state.t + 1
                break
    state.x = x_next
    state.y = y_next
    state.psi = psi_next
    state.g_cache = g_new
    if grad2_new is not None:
        state.grad2_cache = grad2_new
    state.t += 1


def metrics_block(problem: AggregativeProblem) -> int:
    """Iterates per metrics evaluation in `run`: as many as keep a block's
    (B, m, max(n, d)) arrays within METRICS_BLOCK_ELEMENTS, and at least one.
    At max(n, d) = 13: 126 at m = 10, 1 from m = 631 up."""
    return max(1, METRICS_BLOCK_ELEMENTS // (problem.m * max(problem.n, problem.d)))


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
    flagged.

    F(x_t) and grad F(x_t) are evaluated per block of iterates: the rounds
    that need them (every round when ``track_weighted``, else the record
    rounds) keep a reference to x_t and to the held g(x_t), and every
    ``metrics_block(problem)`` of them are stacked and evaluated in one call
    each.  The weighted sums are then accumulated in round order, and every
    record is the one a per-round evaluation gives."""
    if T < 0:
        raise ValueError("T must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if stepper == "alg1":
        advance = step
    elif stepper == "baseline":
        def advance(st):
            return step_baseline(st, lam=baseline_lambda)
    else:
        raise ValueError(f"unknown stepper {stepper!r}")
    prob = state.problem
    m, n, d = prob.m, prob.n, prob.d
    lam = state.schedules.lam
    block = metrics_block(prob)
    records: list[MetricsRecord] = []
    # (t, x_t, g(x_t), weighted, (psi_t, y_t, direction) on a record round else None)
    pending: list[tuple] = []
    wsum = 0.0
    wgap = 0.0
    wgrad = 0.0
    # with no oracle (nonconvex problems) there is no F* to measure a gap from
    f_star = oracle.F_star if oracle is not None else math.nan

    def flush():
        nonlocal wsum, wgap, wgrad
        if not pending:
            return
        B = len(pending)
        ts, xl, gl, weighted, recs = zip(*pending)
        pending.clear()
        xs = np.concatenate(xl).reshape(B, m, n)
        gs = np.concatenate(gl).reshape(B, m, d)
        gaps = F_value(prob, xs, gs) - f_star
        grads = F_grad(prob, xs, gs)
        grad_sqs = np.add.reduce((grads * grads).reshape(B, -1), axis=1)
        # Column k holds (wsum, wgap, wgrad) after the block's first k weighted
        # rounds.  The weighted rounds come first (only the terminal round is
        # not), and a round that is not weighted adds nothing.  accumulate adds
        # in sequence, so each column has the bits of the per-round +=.
        nw = sum(weighted)
        sums = np.empty((3, nw + 1))
        sums[:, 0] = wsum, wgap, wgrad
        if nw:
            sums[0, 1:] = [lam.value(t) for t in ts[:nw]]
            np.multiply(sums[0, 1:], gaps[:nw], out=sums[1, 1:])
            np.multiply(sums[0, 1:], grad_sqs[:nw], out=sums[2, 1:])
            np.add.accumulate(sums, axis=1, out=sums)
        cols = sums.T.tolist()
        wsum, wgap, wgrad = cols[-1]
        rows = [i for i, rec in enumerate(recs) if rec is not None]
        if not rows:
            return
        R = len(rows)

        def sq_norms(a):  # each record's sum of squares, the bits of its own (m, .) .sum()
            return np.add.reduce((a * a).reshape(R, -1), axis=1).tolist()

        psis, ys, dirs = zip(*(recs[i] for i in rows))
        psis = np.concatenate(psis).reshape(R, m, d)
        ys = np.concatenate(ys).reshape(R, m, d)
        err = sq_norms(xs[rows] - oracle.x_star) if oracle is not None else [math.nan] * R
        psi_c = sq_norms(psis - gs[rows].mean(axis=1, keepdims=True))
        y_c = sq_norms(ys - ys.mean(axis=1, keepdims=True))
        # no direction only for T = 0, whose one record is the terminal one
        ge = sq_norms(np.concatenate(dirs).reshape(R, m, n) - grads[rows]) if dirs[-1] is not None else [0.0]
        gaps, grad_sqs = gaps.tolist(), grad_sqs.tolist()
        for k, i in enumerate(rows):
            ws, wg, wgr = cols[min(i + 1, nw)]
            records.append(MetricsRecord(
                t=ts[i], err_x=err[k], gap_F=gaps[i], grad_norm_sq=grad_sqs[i], psi_consensus=psi_c[k],
                y_consensus=y_c[k], grad_est_err=ge[k], weighted_avg_gap=(wg / ws) if ws > 0 else gaps[i],
                weighted_avg_grad=(wgr / ws) if ws > 0 else grad_sqs[i]))

    for t_iter in range(T):
        record_now = (t_iter % stride == 0)
        # step replaces these arrays, never writes into them
        x_t, g_t, psi_t, y_t = state.x, state.g_cache, state.psi, state.y
        direction = advance(state)
        if record_now or track_weighted:
            pending.append((t_iter, x_t, g_t, track_weighted, (psi_t, y_t, direction) if record_now else None))
        if state.diverged_at is not None:
            break
        if len(pending) == block:
            flush()
    if state.diverged_at is None:
        # terminal record at t = T; the gradient estimate uses a dry line-4
        # evaluation (the next zeta block, state not advanced)
        direction = _line4(state, state.schedules.gamma1.value(state.t))[1] if T > 0 else None
        pending.append((state.t, state.x, state.g_cache, False, (state.psi, state.y, direction)))
    flush()
    if state.diverged_at is not None and records:
        # flagged and stopped: the log is partial by design
        records[-1].diverged = True
    return RunResult(
        records=records,
        final_state=state,
        diverged_at=state.diverged_at,
        weighted_avg_gap=(wgap / wsum) if wsum > 0 else math.nan,
        weighted_avg_grad=(wgrad / wsum) if wsum > 0 else math.nan,
    )
