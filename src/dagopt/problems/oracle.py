"""Centralized ground-truth solver.

Full-information spectral projected gradient on F (Barzilai and Borwein,
IMA J. Numer. Anal. 1988; Birgin, Martinez and Raydan, SIAM J. Optim.
2000).  Deliberately independent of the distributed integrator so that
convergence tests are not circular.  The feasible set is convex, so every
point x + alpha d of the line search is feasible and only the direction d
costs a projection.

The decrease test compares F values, and near the optimum of a large
instance (F about 2.5e4 on the m=1000 EV instance, one ulp 3.6e-12)
rounding alone can fail it.  A trial that fails it by no more than F's
rounding is settled by a test on gradient differences, which has no F-value
cancellation; otherwise alpha would halve until x + alpha d rounds back
to x.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .base import AggregativeProblem, F_grad, F_value

TOL = 1e-9  # stop once the gradient-mapping bound falls below this
MAX_ITERS = 200_000
ROUNDING = 8 * float(np.finfo(float).eps)  # relative width of F's rounding band in the decrease test
MEMORY = 10  # the line search compares against the largest of the last MEMORY F values
GAMMA = 1e-4  # sufficient-decrease fraction
STEP_MIN, STEP_MAX = 1e-10, 1e10  # bounds on the Barzilai-Borwein step


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray  # (m, n)
    F_star: float
    iterations: int
    # max(1, 1/s) |P(x - s grad) - x| at the final step s: an upper bound on
    # the unit-step gradient mapping |x - P(x - grad)|
    pg_norm: float
    converged: bool


def centralized_oracle(problem: AggregativeProblem) -> OracleSolution:
    """Spectral projected gradient with a nonmonotone line search.

    With d = P(x - s grad) - x, a trial x + alpha d (alpha = 1, 1/2, ...) is
    accepted when F(x + alpha d) <= F_ref + GAMMA alpha <grad, d>, F_ref the
    largest of the last MEMORY accepted F values.  A trial that misses this
    bound by at most ROUNDING * (|F_ref| + |F(x + alpha d)|) is accepted
    instead when <grad F(x + alpha d) - grad, alpha d> <= -(1 - GAMMA) alpha
    <grad, d>.  For convex F, F(x + alpha d) - F(x) <= <grad F(x + alpha d),
    alpha d>, so the gradient test implies the decrease test against F(x)
    in exact arithmetic.  For a nonconvex F it does not: a step accepted
    this way can raise F by up to the rounding band.

    The next step is s = <dx, dx> / <dx, d grad> over the accepted move,
    clamped to [STEP_MIN, STEP_MAX], or STEP_MAX when <dx, d grad> <= 0.
    Stops when max(1, 1/s) |d| falls below TOL: |P(x - s grad) - x| grows
    with s and |P(x - s grad) - x| / s shrinks with s, so this bounds the
    unit-step gradient mapping |x - P(x - grad)| from above.  On MAX_ITERS
    the result is still returned with converged=False."""
    x = problem.eval_project_all(np.zeros((problem.m, problem.n)))
    fx = F_value(problem, x)
    grad = F_grad(problem, x)
    recent = deque([fx], maxlen=MEMORY)
    step = 1.0
    pg = math.inf
    it = 0
    for it in range(1, MAX_ITERS + 1):
        x_proj = problem.eval_project_all(x - step * grad)
        d = x_proj - x
        pg = max(1.0, 1.0 / step) * math.sqrt(float((d * d).sum()))
        if pg < TOL:
            break
        slope = float((grad * d).sum())  # < 0 away from a stationary point
        f_ref = max(recent)
        alpha = 1.0
        for _ in range(60):
            move = alpha * d
            x_trial = x_proj if alpha == 1.0 else x + move
            f_trial = F_value(problem, x_trial)
            bound = f_ref + GAMMA * alpha * slope
            if f_trial <= bound:
                grad_trial = F_grad(problem, x_trial)
                break
            if f_trial - bound <= ROUNDING * (abs(f_ref) + abs(f_trial)):
                grad_trial = F_grad(problem, x_trial)
                if float(((grad_trial - grad) * move).sum()) <= -(1.0 - GAMMA) * alpha * slope:
                    break
            alpha *= 0.5
        else:
            break
        curvature = float((move * (grad_trial - grad)).sum())
        step = min(max(float((move * move).sum()) / curvature, STEP_MIN), STEP_MAX) if curvature > 0 else STEP_MAX
        x, fx, grad = x_trial, f_trial, grad_trial
        recent.append(fx)
    converged = pg < TOL
    return OracleSolution(x_star=x, F_star=fx, iterations=it, pg_norm=pg, converged=converged)
