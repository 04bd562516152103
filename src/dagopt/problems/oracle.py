"""Centralized ground-truth solver.

Full-information projected gradient descent on F with backtracking line
search.  Deliberately independent of the distributed integrator so that
convergence tests are not circular.

The Armijo test compares F values, and near the optimum of a large instance
(F about 2.5e4 on the m=1000 EV instance, one ulp 3.6e-12) rounding alone
can fail it.  A trial that fails it by no more than F's rounding is settled
by a test on gradient differences, which has no F-value cancellation;
otherwise the step would halve until P(x - s grad) rounds back to x and the
gradient mapping read a false 0.0.  ``pg_norm`` is the gradient mapping at
the final step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import AggregativeProblem, F_grad, F_value

TOL = 1e-9  # stop once the gradient mapping falls below this
MAX_ITERS = 200_000
ROUNDING = 8 * float(np.finfo(float).eps)  # relative width of F's rounding band in the Armijo test


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray  # (m, n)
    F_star: float
    iterations: int
    pg_norm: float  # gradient mapping ||x - P(x - s grad)|| / s at the final step s
    converged: bool


def centralized_oracle(problem: AggregativeProblem) -> OracleSolution:
    """Projected gradient descent with Armijo backtracking from step 1.

    A trial x+ = P(x - s grad) with d = x+ - x is accepted when
    F(x+) <= F(x) + <grad, d> + |d|^2 / (2s).  A trial that misses this
    bound by at most ROUNDING * (|F(x)| + |F(x+)|) is accepted instead
    when <grad F(x+) - grad, d> <= |d|^2 / (2s); that gradient is then the
    next iteration's, so the test costs no extra evaluation when it passes.
    For convex F, F(x+) - F(x) - <grad, d> <= <grad F(x+) - grad, d>, so
    the gradient test implies the Armijo inequality in exact arithmetic.
    For a nonconvex F it does not: a step accepted this way can raise F by
    up to the rounding band.

    Stops when the gradient mapping ||x - P(x - s grad)|| / s falls below
    TOL.  On MAX_ITERS the result is still returned with converged=False."""
    x = problem.eval_project_all(np.zeros((problem.m, problem.n)))
    fx = F_value(problem, x)
    grad = None
    step = 1.0
    pg = np.inf
    it = 0
    for it in range(1, MAX_ITERS + 1):
        if grad is None:
            grad = F_grad(problem, x)
        # gradient mapping at the current step size
        x_trial = problem.eval_project_all(x - step * grad)
        diff = x - x_trial
        pg = float(np.linalg.norm(diff)) / step
        if pg < TOL:
            break
        # Armijo backtracking on the projected step; the first trial is the
        # point just projected
        for trial in range(60):
            if trial:
                x_trial = problem.eval_project_all(x - step * grad)
            diff = x_trial - x
            f_trial = F_value(problem, x_trial)
            quad = 0.5 / step * float((diff * diff).sum())
            bound = fx + float((grad * diff).sum()) + quad + 1e-15
            if f_trial <= bound:
                grad_trial = None
                break
            if f_trial - bound <= ROUNDING * (abs(fx) + abs(f_trial)):
                grad_trial = F_grad(problem, x_trial)
                if float(((grad_trial - grad) * diff).sum()) <= quad:
                    break
            step *= 0.5
        else:
            break
        x, fx, grad = x_trial, f_trial, grad_trial
        step = min(step * 1.25, 1e6)  # let the step recover between iterations
    converged = pg < TOL
    return OracleSolution(x_star=x, F_star=fx, iterations=it, pg_norm=pg, converged=converged)
