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

import numpy as np

from .base import AggregativeProblem, ProblemConstants, F_grad

KINDS = ("strongly-convex", "convex", "nonconvex")
KAPPA = 0.1  # 0.1 x the unit quadratic curvature scale


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

    def clamp(psi):
        return np.clip(psi, psi_lo, psi_hi)

    def inside(psi):
        return (psi > psi_lo) & (psi < psi_hi)

    if kind == "strongly-convex":

        def f_all(x, psi):
            r = clamp(psi) - b
            dx = x - a
            return 0.5 * np.einsum("in,in->i", dx, dx) + 0.5 * np.einsum("id,id->i", r, r)

        def grad1_all(x, psi):
            return x - a

    else:

        def f_all(x, psi):
            r = clamp(psi) - b
            vals = np.einsum("in,in->i", q, x) + 0.5 * np.einsum("id,id->i", r, r)
            if kappa:
                vals = vals + kappa * np.sin(x).sum(axis=1)
            return vals

        def grad1_all(x, psi):
            gr = np.broadcast_to(q, x.shape).copy()
            if kappa:
                gr += kappa * np.cos(x)
            return gr

    def grad2_all(x, psi):
        return (clamp(psi) - b) * inside(psi)

    def g_all(x):
        return np.einsum("idn,in->id", A, x) + c

    def gg_apply_all(x, v):
        return np.einsum("idn,id->in", A, v)

    def project_all(x):
        return np.clip(x, -1.0, 1.0)

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
        name=f"synthetic-{kind}",
        f_all=f_all,
        g_all=g_all,
        grad1_all=grad1_all,
        grad2_all=grad2_all,
        gg_apply_all=gg_apply_all,
        project_all=project_all,
        meta={"a": a, "b": b, "q": q, "A": A, "c": c, "kappa": kappa, "kind": kind, "seed": seed},
    )
    if kind == "nonconvex":
        _assert_nonconvex(prob)
    return prob


def _assert_nonconvex(prob: AggregativeProblem) -> None:
    """Numeric check that F has a negative Hessian eigenvalue on X."""
    m, n = prob.m, prob.n
    x0 = np.full((m, n), 0.9)  # sin''(0.9) < 0 everywhere
    h = 1e-5
    dim = m * n
    H = np.zeros((dim, dim))
    base = x0.reshape(-1)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        gp = F_grad(prob, (base + e).reshape(m, n)).reshape(-1)
        gm = F_grad(prob, (base - e).reshape(m, n)).reshape(-1)
        H[:, j] = (gp - gm) / (2 * h)
    lam_min = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())
    if lam_min >= 0:
        raise ValueError(f"nonconvex instance failed curvature check: min Hessian eigenvalue {lam_min:.3e} >= 0")
