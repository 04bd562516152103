from .base import AggregativeProblem, F_value
from .ev import ev_problem, desk_ev_spec
from .synthetic import synthetic_problem
from .oracle import centralized_oracle
from .gradcheck import finite_diff_check
