"""The names the benchmark's tracer patches must exist in the package.

``dagbench/tracer.py`` wraps 16 attributes of the dagopt modules by name;
renaming one breaks ``dagbench/run.py --trace 1``.  These tests load the
tracer from its file, without changing it, install it on the imported
package and check that every attribute was replaced and is restored."""

import importlib.util
import pathlib
import sys

import dagopt
import dagopt.engine
import dagopt.harness
import dagopt.network
import dagopt.privacy
import dagopt.problems
from dagopt.harness import config, experiments
from dagopt.network import WeightMatrix
from dagopt.problems.base import AggregativeProblem

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "dagbench" / "tracer.py"

HOOKS = [
    (dagopt.engine, "noise_vector"),
    (WeightMatrix, "offdiag"),
    (config, "build_weight_matrix"),
    (AggregativeProblem, "eval_project_all"),
    (AggregativeProblem, "eval_g_all"),
    (AggregativeProblem, "eval_grad1_all"),
    (AggregativeProblem, "eval_grad2_all"),
    (AggregativeProblem, "apply_grad_g_all"),
    (AggregativeProblem, "eval_f_all"),
    (dagopt.engine, "F_value"),
    (dagopt.engine, "F_grad"),
    (experiments, "centralized_oracle"),
    (dagopt.engine, "step"),
    (dagopt.engine, "step_baseline"),
    (dagopt.engine, "run"),
    (dagopt.privacy, "epsilon"),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("dagbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_hook_and_uninstall_restores_it():
    tracer_mod = _load_tracer()
    originals = [getattr(owner, attr) for owner, attr in HOOKS]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer, dagopt)
        patched = [getattr(owner, attr) for owner, attr in HOOKS]
        assert len(tracer._patches) == len(HOOKS) == 16
        assert {(id(owner), attr) for owner, attr, _ in tracer._patches} == {(id(o), a) for o, a in HOOKS}
        for (owner, attr), before, after in zip(HOOKS, originals, patched):
            assert after is not before, f"{owner.__name__}.{attr} was not patched"
            assert after.__wrapped__ is before, f"{owner.__name__}.{attr} wraps another callable"
    finally:
        tracer.uninstall()
    for (owner, attr), before in zip(HOOKS, originals):
        assert getattr(owner, attr) is before, f"{owner.__name__}.{attr} was not restored"
