"""Centralized ground-truth solver.

Full-information projected gradient descent on F with backtracking line
search.  Deliberately independent of the distributed integrator so that
convergence tests are not circular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import AggregativeProblem, F_grad, F_value

TOL = 1e-9  # stop once the gradient mapping falls below this
MAX_ITERS = 200_000


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray  # (m, n)
    F_star: float
    iterations: int
    pg_norm: float  # final projected-gradient norm
    converged: bool


def centralized_oracle(problem: AggregativeProblem) -> OracleSolution:
    """Projected gradient descent with Armijo backtracking from step 1.

    Stops when the gradient mapping ||x - P(x - s grad)|| / s falls below
    TOL.  On MAX_ITERS the result is still returned with converged=False."""
    x = problem.eval_project_all(np.zeros((problem.m, problem.n)))
    fx = F_value(problem, x)
    step = 1.0
    pg = np.inf
    it = 0
    for it in range(1, MAX_ITERS + 1):
        grad = F_grad(problem, x)
        # gradient mapping at the current step size
        x_trial = problem.eval_project_all(x - step * grad)
        diff = x - x_trial
        pg = float(np.linalg.norm(diff)) / step
        if pg < TOL:
            break
        # Armijo backtracking on the projected step; the first trial is the
        # point just projected
        accepted = False
        for trial in range(60):
            if trial:
                x_trial = problem.eval_project_all(x - step * grad)
            diff = x_trial - x
            f_trial = F_value(problem, x_trial)
            if f_trial <= fx + float((grad * diff).sum()) + 0.5 / step * float((diff * diff).sum()) + 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, fx = x_trial, f_trial
        step = min(step * 1.25, 1e6)  # let the step recover between iterations
    converged = pg < TOL
    return OracleSolution(x_star=x, F_star=fx, iterations=it, pg_norm=pg, converged=converged)
