"""Euclidean projections onto the feasible sets used by the problems."""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleBudget

_EQ_TOL = 1e-10


def project_box_budget_batch(points: np.ndarray, x_max: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Row-wise projection onto {0 <= x <= x_max[i], 1'x = E[i]}.

    The projection is clip(point - theta, 0, x_max) where the scalar shift
    theta makes the budget bind.  The mass s(theta) = 1'clip(point - theta)
    is piecewise linear and non-increasing with breakpoints at point_k and
    point_k - x_max_k.  With the 2K breakpoints of each row sorted, a
    fixed-step binary search over all rows at once finds the bracketing
    segment (each probe evaluates the mass at one breakpoint per row), and
    theta is interpolated exactly inside it."""
    points = np.asarray(points, dtype=float)
    x_max = np.asarray(x_max, dtype=float)
    E = np.asarray(E, dtype=float)
    if (x_max < 0).any():
        raise InfeasibleBudget("x_max must be nonnegative")
    total = x_max.sum(axis=1)
    if (E < -_EQ_TOL).any() or (E > total + _EQ_TOL).any():
        raise InfeasibleBudget("some budget E outside [0, sum(x_max)]")
    E = E.clip(0.0, total)

    # breakpoints per row, ascending; mass is non-increasing in theta
    bp = np.sort(np.concatenate([points, points - x_max], axis=1), axis=1)  # (m, 2K)
    m, nbp = bp.shape
    rows = np.arange(m)

    def mass_at(j):
        return (points - bp[rows, j][:, None]).clip(0.0, x_max).sum(axis=1)

    # j = number of breakpoints with mass > E.  The mass at the last
    # breakpoint (the largest point) is 0 <= E, so j < 2K, and a probe
    # clamped to it never advances j.
    j = np.zeros(m, dtype=np.intp)
    step = 1 << (nbp.bit_length() - 1)
    while step:
        j += step * (mass_at(np.minimum(j + (step - 1), nbp - 1)) > E)
        step >>= 1
    # theta lies in [bp[j-1], bp[j]], or is bp[0] when E is the full capacity
    lo = np.maximum(j - 1, 0)
    m_lo, m_hi = mass_at(lo), mass_at(j)
    bp_lo = bp[rows, lo]
    sloped = (j > 0) & (m_lo != m_hi)
    frac = (m_lo - E) / np.where(sloped, m_lo - m_hi, 1.0)
    theta = np.where(sloped, bp_lo + frac * (bp[rows, j] - bp_lo), bp_lo)
    out = (points - theta[:, None]).clip(0.0, x_max)
    # the clip keeps the box exact; polish the equality to 1e-10 by nudging
    # the strictly interior coordinates of each row uniformly
    gap = E - out.sum(axis=1)
    free = (out > 0) & (out < x_max)
    nfree = free.sum(axis=1)
    polish = (np.abs(gap) > 1e-13) & (nfree > 0)
    if polish.any():
        nudge = free & polish[:, None]
        out = np.where(nudge, out + (gap / np.maximum(nfree, 1))[:, None], out).clip(0.0, x_max)
    return out


def project_box_budget(point: np.ndarray, x_max: np.ndarray, E: float) -> np.ndarray:
    """Projection onto {0 <= x <= x_max, 1'x = E} (single row)."""
    return project_box_budget_batch(
        np.asarray(point, dtype=float)[None, :],
        np.asarray(x_max, dtype=float)[None, :],
        np.array([E], dtype=float),
    )[0]
