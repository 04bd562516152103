from .base import AggregativeProblem
from .ev import ev_problem, desk_ev_spec
from .synthetic import synthetic_problem
from .oracle import centralized_oracle
