"""Euclidean projections onto the feasible sets used by the problems.

The box-plus-budget projection is a continuous quadratic knapsack solved by
breakpoint search (Kiwiel, Math. Program. 2008), warm-started from the
previous call's bracket (see `BoxBudgetProjection`)."""

from __future__ import annotations

import numpy as np

from ..errors import DagoptError

_EQ_TOL = 1e-10


class BoxBudgetProjection:
    """Row-wise projection onto {0 <= x <= x_max[i], 1'x = E[i]}; x_max and E
    are checked once, at construction.

    The projection is clip(point - theta, 0, x_max), where theta makes the
    budget bind.  The mass s(theta) = 1'clip(point - theta) is non-increasing
    and piecewise linear with breakpoints point_k and point_k - x_max_k, so
    theta is interpolated exactly in [bp[j-1], bp[j]] of the sorted
    breakpoints, where s(bp[j-1]) > E (or j = 0) and s(bp[j]) <= E.  The mass
    computed at the breakpoints is non-increasing in floating point too
    (rounded subtraction, clipping and a fixed-order sum are monotone), so
    each row has exactly one such j.  A call first tests `hint`, the previous
    call's j; if every row brackets there, the binary search is skipped.  The
    hint changes the cost, never the result.  The test gathers bp[j-1] and
    bp[j] once each, for theta too, at flat indices row * 2K + max(j-1, 0) and
    row * 2K + j into bp.ravel(), cached until `hint` is another array."""

    def __init__(self, x_max: np.ndarray, E: np.ndarray):
        x_max = np.asarray(x_max, dtype=float)
        E = np.asarray(E, dtype=float)
        if (x_max < 0).any():
            raise DagoptError("x_max must be nonnegative")
        total = x_max.sum(axis=1)
        if (E < -_EQ_TOL).any() or (E > total + _EQ_TOL).any():
            raise DagoptError("some budget E outside [0, sum(x_max)]")
        self.x_max = x_max
        self.E = E.clip(0.0, total)
        self.hint = None  # each row's bracketing index from the previous call
        self._row0 = np.arange(x_max.shape[0]) * (2 * x_max.shape[1])  # row offsets into bp.ravel()
        self._flat = (None, None, None)  # (hint array, flat indices of bp[j-1], of bp[j])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        x_max, E = self.x_max, self.E
        # breakpoints per row, ascending; mass is non-increasing in theta
        bp = np.concatenate([points, points - x_max], axis=1)  # (m, 2K)
        bp.sort(axis=1)
        nbp = bp.shape[1]
        buf = np.empty_like(points)

        def mass_at(theta):
            # clip(points - theta, 0, x_max) in place; the same values as clip
            # because 0 <= x_max
            np.subtract(points, theta[:, None], out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.minimum(buf, x_max, out=buf)
            return np.add.reduce(buf, axis=1)

        def masses(j):
            if self._flat[0] is not j:  # a new search result, or an assigned hint
                self._flat = (j, self._row0 + np.maximum(j - 1, 0), self._row0 + j)
            bp_lo, bp_hi = bp.take(self._flat[1]), bp.take(self._flat[2])
            return bp_lo, bp_hi, mass_at(bp_lo), mass_at(bp_hi)

        j = self.hint
        hit = False
        if j is not None:
            bp_lo, bp_hi, m_lo, m_hi = masses(j)
            hit = np.logical_and.reduce(((j == 0) | (m_lo > E)) & (m_hi <= E))
        if not hit:
            # j = number of breakpoints with mass > E.  The mass at the last
            # breakpoint (the largest point) is 0 <= E, so j < 2K, and a
            # probe clamped to it never advances j.
            j = np.zeros(len(bp), dtype=np.intp)
            step = 1 << (nbp.bit_length() - 1)
            while step:
                j += step * (mass_at(bp.take(self._row0 + np.minimum(j + (step - 1), nbp - 1))) > E)
                step >>= 1
            bp_lo, bp_hi, m_lo, m_hi = masses(j)
        self.hint = j
        # theta lies in [bp[j-1], bp[j]], or is bp[0] when E is the full capacity
        sloped = (j > 0) & (m_lo != m_hi)
        frac = (m_lo - E) / np.where(sloped, m_lo - m_hi, 1.0)
        theta = np.where(sloped, bp_lo + frac * (bp_hi - bp_lo), bp_lo)
        out = (points - theta[:, None]).clip(0.0, x_max)
        # the clip keeps the box exact; polish the equality to 1e-10 by nudging
        # the strictly interior coordinates of each row uniformly
        gap = E - np.add.reduce(out, axis=1)
        big = np.abs(gap) > 1e-13
        if np.logical_or.reduce(big):
            free = (out > 0) & (out < x_max)
            nfree = np.add.reduce(free, axis=1)
            polish = big & (nfree > 0)
            if np.logical_or.reduce(polish):
                nudge = free & polish[:, None]
                out = np.where(nudge, out + (gap / np.maximum(nfree, 1))[:, None], out).clip(0.0, x_max)
        return out
