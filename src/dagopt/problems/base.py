"""The aggregative-problem interface.

A problem bundles, for all m agents at once, the local objectives
f_i(x^i, psi^i), the aggregate contributions g_i(x^i), the feasible sets X_i
(as a projection), the gradients, and the constants used by the ball radius
/ privacy / truthfulness formulas.  Every callable is vectorized over the
agents; there is no per-agent form and no fallback loop, so the callables
the integrator runs are the ones the gradient check validates.

A problem is data plus kernels: each callable is a method of a frozen
object holding the instance's arrays (``EVChargingSpec``, ``SyntheticData``)
or a projection object, never a closure, so a problem pickles.

Conventions
-----------
- x is stacked as an (m, n) array (uniform per-agent dimension n).
- psi is stacked as an (m, d) array: row i is the aggregate estimate at
  which agent i evaluates its own f_i.  It only has to broadcast against
  x's agent axis: F_value and F_grad pass phi(x) as one (..., 1, d) row,
  so a price of phi is computed once per slot, not once per agent.
- f_all, g_all, grad1_all, grad2_all and gg_apply_all, and with them
  aggregate, F_value and F_grad, also accept leading batch axes: a
  (B, m, n) stack of iterates gives, row for row, bit for bit what B
  separate (m, n) calls give.  The engine evaluates its metrics on such
  stacks.  project_all is per iterate only.
- gg_apply_all(x, v) returns the (m, n) stack of products grad_g_i(x^i) @ v^i,
  where grad_g_i(x^i) is the (n, d) Jacobian transpose of g_i.
- Every problem carries a box [psi_lo, psi_hi] on which f_i(x, .) is defined;
  evaluators clamp psi into it, which keeps grad2_f globally bounded by L_f2
  (required for the ball-containment argument) and pins the domain on which
  the Lipschitz constants are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    # Gradient-check hooks.  interior_check(x, h) -> (m, n) bool says which
    # coordinates x^i_j +- h stay in the region where f and g are smooth
    # (for the EV budget set, whose interior is empty, the rate box);
    # interior_sampler(rng) -> (m, n) draws a strictly interior point.
    interior_check: Callable[[np.ndarray, float], np.ndarray]
    interior_sampler: Callable[[np.random.Generator], np.ndarray]
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


def aggregate(problem: AggregativeProblem, x: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """phi(x) = (1/m) sum_i g_i(x^i); (..., m, n) -> (..., d).  ``g``, when
    given, is g(x) stacked like it, (..., m, d), and is not recomputed."""
    return (problem.eval_g_all(x) if g is None else g).mean(axis=-2)


def F_value(problem: AggregativeProblem, x: np.ndarray, g: np.ndarray | None = None) -> float | np.ndarray:
    """F(x) = sum_i f_i(x^i, phi(x)): a float for one (m, n) iterate, a
    (B,) array for a (B, m, n) stack; ``g`` as in ``aggregate``."""
    psi = aggregate(problem, x, g)[..., None, :]
    vals = problem.eval_f_all(x, psi).sum(axis=-1)
    return float(vals) if vals.ndim == 0 else vals


def F_grad(problem: AggregativeProblem, x: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Full-information gradient of F, stacked like x: (..., m, n).

    grad F(x)^i = grad1_f_i(x^i, phi) + grad_g_i(x^i) @ mean_j grad2_f_j(x^j, phi);
    ``g`` as in ``aggregate``.
    """
    psi = aggregate(problem, x, g)[..., None, :]
    g2bar = problem.eval_grad2_all(x, psi).mean(axis=-2, keepdims=True)
    g2bar = np.broadcast_to(g2bar, x.shape[:-1] + g2bar.shape[-1:])  # to every agent's row
    return problem.eval_grad1_all(x, psi) + problem.apply_grad_g_all(x, g2bar)
