from .base import AggregativeProblem, ProblemConstants, aggregate, F_value, F_grad
from .ev import EVChargingSpec, ev_problem, desk_ev_spec
from .synthetic import synthetic_problem
from .oracle import OracleSolution, centralized_oracle
from .gradcheck import finite_diff_check

__all__ = [
    "AggregativeProblem",
    "ProblemConstants",
    "aggregate",
    "F_value",
    "F_grad",
    "EVChargingSpec",
    "ev_problem",
    "desk_ev_spec",
    "synthetic_problem",
    "OracleSolution",
    "centralized_oracle",
    "finite_diff_check",
]
