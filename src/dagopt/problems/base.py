"""The aggregative-problem interface.

A problem bundles, for all m agents at once, the local objectives
f_i(x^i, psi^i), the aggregate contributions g_i(x^i), the feasible sets X_i
(as a projection), the gradients, and the constants used by the ball radius
/ privacy / truthfulness formulas.  Every callable is vectorized over the
agents; there is no per-agent form and no fallback loop, so the callables
the integrator runs are the ones the gradient check validates.

Conventions
-----------
- x is stacked as an (m, n) array (uniform per-agent dimension n).
- psi is stacked as an (m, d) array: row i is the aggregate estimate at
  which agent i evaluates its own f_i.
- gg_apply_all(x, v) returns the (m, n) stack of products grad_g_i(x^i) @ v^i,
  where grad_g_i(x^i) is the (n, d) Jacobian transpose of g_i.
- Every problem carries a box [psi_lo, psi_hi] on which f_i(x, .) is defined;
  evaluators clamp psi into it, which keeps grad2_f globally bounded by L_f2
  (required for the ball-containment argument) and pins the domain on which
  the Lipschitz constants are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ProblemConstants:
    """Assumption-level constants over the compact feasible region.

    L_* are gradient bounds, mu the strong convexity modulus of F (0 if
    none), D_X the Euclidean diameter bound of X, D_f the max |f_i| over X."""

    L_f1: float
    L_f2: float
    L_g: float
    mu: float
    D_X: float
    D_f: float


@dataclass
class AggregativeProblem:
    m: int
    n: int  # per-agent decision dimension
    d: int  # aggregate dimension
    f_all: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (m,n),(m,d)->(m,)
    g_all: Callable[[np.ndarray], np.ndarray]  # (m,n)->(m,d)
    grad1_all: Callable[[np.ndarray, np.ndarray], np.ndarray]  # ->(m,n)
    grad2_all: Callable[[np.ndarray, np.ndarray], np.ndarray]  # ->(m,d)
    gg_apply_all: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (m,n),(m,d)->(m,n)
    project_all: Callable[[np.ndarray], np.ndarray]  # (m,n)->(m,n)
    constants: ProblemConstants
    psi_lo: np.ndarray  # (d,) domain box for psi
    psi_hi: np.ndarray
    name: str = "problem"
    # Gradient-check hooks.  interior_check(x, h) -> (m,) bool says which
    # agents' x^i +- h stay in the smooth evaluation region; the default
    # (None) means "projection leaves the perturbed point unchanged", which
    # is the right test for full-dimensional sets but not for sets with
    # equality constraints (the EV budget), whose f/g are smooth off the set.
    interior_check: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    # interior_sampler(rng) -> (m, n) draws a strictly interior point.
    interior_sampler: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    meta: dict = field(default_factory=dict)

    # Method wrappers around the fields, kept as the names callers (and
    # per-layer tracing) look up on the class.

    def eval_g_all(self, x: np.ndarray) -> np.ndarray:
        return self.g_all(x)

    def eval_f_all(self, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return self.f_all(x, psi)

    def eval_grad1_all(self, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return self.grad1_all(x, psi)

    def eval_grad2_all(self, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return self.grad2_all(x, psi)

    def apply_grad_g_all(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-agent products grad_g_i(x^i) @ v^i, stacked (m, n)."""
        return self.gg_apply_all(x, v)

    def eval_project_all(self, x: np.ndarray) -> np.ndarray:
        return self.project_all(x)


def aggregate(problem: AggregativeProblem, x: np.ndarray) -> np.ndarray:
    """phi(x) = (1/m) sum_i g_i(x^i)."""
    return problem.eval_g_all(x).mean(axis=0)


def F_value(problem: AggregativeProblem, x: np.ndarray) -> float:
    phi = aggregate(problem, x)
    psi = np.broadcast_to(phi, (problem.m, problem.d))
    return float(problem.eval_f_all(x, psi).sum())


def F_grad(problem: AggregativeProblem, x: np.ndarray) -> np.ndarray:
    """Full-information gradient of F, stacked (m, n).

    grad F(x)^i = grad1_f_i(x^i, phi) + grad_g_i(x^i) @ mean_j grad2_f_j(x^j, phi).
    """
    phi = aggregate(problem, x)
    psi = np.broadcast_to(phi, (problem.m, problem.d))
    g2bar = problem.eval_grad2_all(x, psi).mean(axis=0)
    v = np.broadcast_to(g2bar, (problem.m, problem.d))
    return problem.eval_grad1_all(x, psi) + problem.apply_grad_g_all(x, v)
