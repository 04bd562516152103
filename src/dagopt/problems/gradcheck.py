"""Central-difference validation of the analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PointTooCloseToBoundary
from .base import AggregativeProblem

H = 1e-5  # central-difference step


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst: str  # human-readable offending gradient and agent


def _rel(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-agent relative error ||fd - analytic||_inf / max(1, ||analytic||_inf)
    over all axes but the leading agent axis."""
    axes = tuple(range(1, err.ndim))
    return np.abs(err).max(axis=axes) / np.maximum(1.0, np.abs(ref).max(axis=axes))


def central_differences(fn, arr: np.ndarray, h: float) -> np.ndarray:
    """Central differences of ``fn`` along each column j of ``arr``, stacked
    on axis 1.  Column j moves in every row at once, so one pair of
    evaluations gives the derivatives of all m agents."""
    return np.stack([(fn(arr + e) - fn(arr - e)) / (2 * h) for e in h * np.eye(arr.shape[1])], axis=1)


def finite_diff_check(problem: AggregativeProblem, x: np.ndarray, psi: np.ndarray) -> GradCheckResult:
    """Compare grad1_all, grad2_all and gg_apply_all against central
    differences of f_all and g_all.

    ``x`` is the stacked (m, n) decision, ``psi`` a single d-vector at which
    every agent is probed.  Points must be strictly interior: every x^i_j +- 2h
    must pass the problem's interior_check and psi +- 2h must stay inside the
    psi domain box.  The analytic (n, d) Jacobian of each g_i is recovered by
    applying gg_apply_all to the d unit vectors."""
    m, d = problem.m, problem.d
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)

    inside = problem.interior_check(x, 2 * H)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        raise PointTooCloseToBoundary(f"x^{i} coordinate {j} within 2h of the boundary of its smooth region")
    if np.any(psi - 2 * H <= problem.psi_lo) or np.any(psi + 2 * H >= problem.psi_hi):
        raise PointTooCloseToBoundary("psi within 2h of the psi domain box")

    P = np.broadcast_to(psi, (m, d))
    fd1, an1 = central_differences(lambda v: problem.f_all(v, P), x, H), problem.grad1_all(x, P)
    fd2, an2 = central_differences(lambda v: problem.f_all(x, v), P, H), problem.grad2_all(x, P)
    # the Jacobians of g, stacked (m, n, d); the analytic one column by column
    fdJ = central_differences(problem.g_all, x, H)
    anJ = np.stack([problem.gg_apply_all(x, np.broadcast_to(e, (m, d))) for e in np.eye(d)], axis=2)
    names = ("grad1_all", "grad2_all", "gg_apply_all")
    rel = np.stack([_rel(fd1 - an1, an1), _rel(fd2 - an2, an2), _rel(fdJ - anJ, anJ)], axis=1)  # (m, 3)
    i, k = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return GradCheckResult(max_rel_error=float(rel[i, k]), worst=f"{names[k]} agent {i}")


def random_interior_point(problem: AggregativeProblem, seed: int):
    """A strictly interior (x, psi) pair for gradient checking: x is the
    problem's interior sample, psi is drawn well inside the psi domain box."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = problem.interior_sampler(rng)
    u = rng.uniform(0.3, 0.7, size=problem.d)
    psi = problem.psi_lo + u * (problem.psi_hi - problem.psi_lo)
    return x, psi
