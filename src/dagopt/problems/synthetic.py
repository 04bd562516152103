"""Synthetic test instances, one per convexity regime.

strongly-convex:  f_i = 0.5||x^i - a_i||^2 + 0.5||psi - b_i||^2
convex:           f_i = <q_i, x^i>        + 0.5||psi - b_i||^2
nonconvex:        convex + kappa * sum_j sin(x^i_j)

with affine aggregates g_i(x^i) = A_i x^i + c_i and box constraints
X_i = [-1, 1]^n.  All instance data is drawn deterministically from the
seed.  psi is clamped to a box comfortably containing the image of g
(plus noise headroom) so grad2_f stays globally bounded by L_f2.

For the nonconvex kind the A_i are scaled down so the sin term dominates
the (convex) aggregate coupling; the factory numerically verifies that the
Hessian of F has a negative eigenvalue on X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum's C core, which np.einsum calls when optimize=False

from ..errors import DagoptError
from .base import AggregativeProblem, ProblemConstants, F_grad
from .gradcheck import H, central_differences

KINDS = ("strongly-convex", "convex", "nonconvex")
KAPPA = 0.1  # 0.1 x the unit quadratic curvature scale
PULL = 0.25  # share of the way towards the box centre for interior samples


@dataclass(frozen=True)
class SyntheticData:
    """One instance's data; its methods are the kernels (f_*, grad1_* per kind)."""

    a: np.ndarray  # (m, n) strongly convex targets
    b: np.ndarray  # (m, d) aggregate targets
    q: np.ndarray  # (m, n) linear costs of the other kinds
    A: np.ndarray  # (m, d, n)
    c: np.ndarray  # (m, d)
    kappa: float
    psi_lo: np.ndarray  # (m, d): the problem's (d,) psi box repeated per agent, the iterate's
    psi_hi: np.ndarray  # shape, so that the round's grad2_all clamp takes same-shape operands

    # The kernels clamp with np.minimum(np.maximum(...)), two ufunc calls
    # against np.clip's heavier dispatch.  The bits are np.clip's because no
    # bound here is 0: clip(-0.0, 0.0, 1.0) is -0.0, maximum(-0.0, 0.0) is +0.0.

    def f_quadratic(self, x, psi):
        r = np.minimum(np.maximum(psi, self.psi_lo), self.psi_hi) - self.b
        dx = x - self.a
        return 0.5 * np.einsum("...in,...in->...i", dx, dx) + 0.5 * np.einsum("...id,...id->...i", r, r)

    def grad1_quadratic(self, x, psi):
        return x - self.a

    def f_linear(self, x, psi):
        r = np.minimum(np.maximum(psi, self.psi_lo), self.psi_hi) - self.b
        return np.einsum("in,...in->...i", self.q, x) + 0.5 * np.einsum("...id,...id->...i", r, r)

    def grad1_linear(self, x, psi):
        return np.broadcast_to(self.q, x.shape).copy()

    def f_sine(self, x, psi):
        return self.f_linear(x, psi) + self.kappa * np.sin(x).sum(axis=-1)

    def grad1_sine(self, x, psi):
        return np.broadcast_to(self.q, x.shape) + self.kappa * np.cos(x)

    def grad2_all(self, x, psi):
        lo, hi = self.psi_lo, self.psi_hi
        return (np.minimum(np.maximum(psi, lo), hi) - self.b) * ((psi > lo) & (psi < hi))

    # g_all and gg_apply_all run every round: they call c_einsum directly, the
    # same contraction and bits as np.einsum without its dispatch layer, which
    # costs about 1 us a call, a fiftieth of a round at m = 10
    def g_all(self, x):
        return c_einsum("idn,...in->...id", self.A, x) + self.c

    def gg_apply_all(self, x, v):
        return c_einsum("idn,...id->...in", self.A, v)

    def project_all(self, x):
        return np.minimum(np.maximum(x, -1.0), 1.0)

    def interior_check(self, x, h):
        return np.abs(x) <= 1.0 - h

    def interior_sampler(self, rng):
        return (1.0 - PULL) * rng.uniform(-1.0, 1.0, size=self.a.shape)


def synthetic_problem(kind: str, m: int, n_i: int, d: int, seed: int = 0) -> AggregativeProblem:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    n = n_i
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.uniform(-0.5, 0.5, size=(m, n))
    b = rng.uniform(-0.5, 0.5, size=(m, d))
    q = rng.uniform(-0.5, 0.5, size=(m, n))
    a_scale = (0.3 if kind == "nonconvex" else 1.0) / math.sqrt(max(n, d))
    A = rng.uniform(-1.0, 1.0, size=(m, d, n)) * a_scale
    c = rng.uniform(-0.5, 0.5, size=(m, d))
    kappa = KAPPA if kind == "nonconvex" else 0.0

    # psi domain: image of g over the box, widened by half a span plus 1
    reach = np.abs(A).sum(axis=2)  # (m, d): sup |A_i x| over the box
    img_lo = (c - reach).min(axis=0)
    img_hi = (c + reach).max(axis=0)
    margin = 0.5 * (img_hi - img_lo) + 1.0
    psi_lo = img_lo - margin
    psi_hi = img_hi + margin
    data = SyntheticData(a=a, b=b, q=q, A=A, c=c, kappa=kappa,
                         psi_lo=np.repeat(psi_lo[None, :], m, axis=0), psi_hi=np.repeat(psi_hi[None, :], m, axis=0))
    f_all, grad1_all = {"strongly-convex": (data.f_quadratic, data.grad1_quadratic),
                        "convex": (data.f_linear, data.grad1_linear), "nonconvex": (data.f_sine, data.grad1_sine)}[kind]

    corner = np.maximum(np.abs(-1.0 - a), np.abs(1.0 - a))  # per-coord sup |x - a|
    psi_corner = np.maximum(np.abs(psi_lo[None, :] - b), np.abs(psi_hi[None, :] - b))
    L_f2 = float(np.linalg.norm(psi_corner, axis=1).max())
    op_norms = np.array([np.linalg.norm(A[i], 2) for i in range(m)])
    L_g = float(op_norms.max())
    if kind == "strongly-convex":
        L_f1 = float(np.linalg.norm(corner, axis=1).max())
        mu = 1.0
        D_f = 0.5 * L_f1**2 + 0.5 * L_f2**2
    else:
        L_f1 = float(np.linalg.norm(q, axis=1).max()) + kappa * math.sqrt(n)
        mu = 0.0
        D_f = float(np.linalg.norm(q, axis=1).max()) * math.sqrt(n) + 0.5 * L_f2**2 + kappa * n

    constants = ProblemConstants(
        L_f1=L_f1,
        L_f2=L_f2,
        L_g=L_g,
        mu=mu,
        D_X=2.0 * math.sqrt(m * n),
        D_f=D_f,
    )
    prob = AggregativeProblem(
        m=m,
        n=n,
        d=d,
        constants=constants,
        psi_lo=psi_lo,
        psi_hi=psi_hi,
        f_all=f_all,
        g_all=data.g_all,
        grad1_all=grad1_all,
        grad2_all=data.grad2_all,
        gg_apply_all=data.gg_apply_all,
        project_all=data.project_all,
        interior_check=data.interior_check,
        interior_sampler=data.interior_sampler,
        meta={"a": a, "b": b, "q": q, "A": A, "c": c, "kappa": kappa, "kind": kind, "seed": seed},
    )
    if kind == "nonconvex":
        _assert_nonconvex(prob)
    return prob


def _assert_nonconvex(prob: AggregativeProblem) -> None:
    """Numeric check that F has a negative Hessian eigenvalue on X.

    Only agent 0's n x n diagonal block H_00 of the Hessian at x = 0.9 is
    differenced (2n gradient calls for any m).  H_00 = -kappa sin(0.9) I +
    A_0'A_0/m, and every column of A_0 has squared norm <= 0.09 < 2 kappa
    sin(0.9), so for m >= 2 the block has a negative diagonal entry, hence a
    negative eigenvalue, and by Cauchy interlacing so does the full Hessian;
    at m = 1 the block is the full Hessian."""
    x0 = np.full((prob.m, prob.n), 0.9)  # sin''(0.9) < 0 everywhere
    H00 = central_differences(lambda row: F_grad(prob, np.concatenate([row, x0[1:]]))[:1], x0[:1], H)[0]
    lam_min = float(np.linalg.eigvalsh(0.5 * (H00 + H00.T)).min())
    if lam_min >= 0:
        raise DagoptError(f"nonconvex instance failed curvature check: min Hessian eigenvalue {lam_min:.3e} >= 0")
