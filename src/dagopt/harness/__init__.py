"""Experiment orchestration and CLI front-end."""

from .config import parse_config
from .experiments import (
    AdjacentScenario,
    emit_outputs,
    run_convergence_experiment,
    run_robustness_experiment,
    run_truthfulness_experiment,
)
