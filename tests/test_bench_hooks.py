"""The names the benchmark reads must exist in the package.

``dagbench/tracer.py`` wraps 16 attributes of the dagopt modules by name;
renaming one breaks ``dagbench/run.py --trace 1``.  These tests load the
tracer from its file, without changing it, install it on the imported
package and check that every attribute was replaced and is restored.  The
others check the names ``dagbench/run.py`` and ``dagbench/workloads.py``
read without the tracer, and the ``engine.run`` calls the latter counts."""

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


# The benchmark also reads names outside the tracer: ``dagbench/run.py``
# reports the version and drives the harness entry points, and
# ``dagbench/workloads.py`` reads each ``engine.run`` call's ``oracle``
# keyword and checks the final iterates against the problem data in ``meta``.

HARNESS_ENTRY_POINTS = ("parse_config", "run_convergence_experiment", "run_truthfulness_experiment",
                        "AdjacentScenario", "emit_outputs")


def test_package_exposes_what_the_benchmark_runner_reads():
    assert isinstance(dagopt.__version__, str) and dagopt.__version__
    for name in HARNESS_ENTRY_POINTS:
        assert callable(getattr(dagopt.harness, name, None)), f"dagopt.harness.{name} is missing"
    # the tracer reaches these two modules as attributes of the package
    assert dagopt.harness.config is config and dagopt.harness.experiments is experiments


def _engine_run_keywords(monkeypatch, run_experiment, text) -> list[dict]:
    """The keyword arguments of every ``dagopt.engine.run`` call the
    experiment makes, seen the way ``dagbench/workloads.py`` sees them: by
    replacing the module attribute."""
    calls = []
    run = dagopt.engine.run

    def spy(state, T, *args, **kwargs):
        calls.append(kwargs)
        return run(state, T, *args, **kwargs)

    monkeypatch.setattr(dagopt.engine, "run", spy)
    cfg = dagopt.harness.parse_config(text)
    if cfg.kind == "truthfulness":
        run_experiment(cfg, dagopt.harness.AdjacentScenario(agents=cfg.untruthful_agents,
                                                            shift_fraction=cfg.shift_fraction,
                                                            pivot_slot=cfg.pivot_slot))
    else:
        run_experiment(cfg)
    return calls


def test_convergence_experiment_passes_the_oracle_by_keyword(monkeypatch):
    calls = _engine_run_keywords(
        monkeypatch, dagopt.harness.run_convergence_experiment,
        "[experiment]\nkind = convergence\nT = 3\nseeds = 0\n"
        "[problem]\nproblem = strongly-convex\nm = 4\nn = 2\nd = 2\n"
        "[topology]\ntopology = complete\nedge_weight = 0.2\n")
    assert calls and all(kwargs.get("oracle") is not None for kwargs in calls)
    assert all(hasattr(kwargs["oracle"], "x_star") for kwargs in calls)


def test_robustness_experiment_passes_the_oracle_by_keyword(monkeypatch):
    calls = _engine_run_keywords(
        monkeypatch, dagopt.harness.run_robustness_experiment,
        "[experiment]\nkind = robustness\nT = 3\nseeds = 0,1\n"
        "[problem]\nproblem = strongly-convex\nm = 4\nn = 2\nd = 2\n"
        "[topology]\ntopology = complete\nedge_weight = 0.2\n")
    assert [kwargs["stepper"] for kwargs in calls] == ["alg1", "baseline"] * 2
    assert all(hasattr(kwargs.get("oracle"), "x_star") for kwargs in calls)


def test_truthfulness_experiment_runs_two_noisy_runs_per_seed_and_one_noise_free_pair(monkeypatch):
    # the benchmark counts these calls as the experiment's attempted runs
    # and its rounds; under project-zero the noise-free pair reads no seed
    calls = _engine_run_keywords(
        monkeypatch, dagopt.harness.run_truthfulness_experiment,
        "[experiment]\nkind = truthfulness\nseeds = 0,1,2\nworkers = 1\n"
        "[schedules]\npreset = sec5-truthful\nx0_policy = project-zero\n"
        "[truthfulness]\ntruthful_T = 5\n")
    assert len(calls) == 2 * 3 + 2
    assert [kwargs["stepper"] for kwargs in calls] == ["alg1", "alg1", "baseline", "baseline"] + ["alg1"] * 4
    assert all(kwargs.get("oracle") is None for kwargs in calls)


def test_problem_meta_holds_the_data_the_benchmark_checks():
    spec = dagopt.problems.ev_problem(dagopt.problems.desk_ev_spec(5)).meta["spec"]
    for attr in ("x_max", "E", "d", "C_tot", "price_coeff", "price_exp"):
        assert hasattr(spec, attr), f"EV spec has no {attr}"
    meta = dagopt.problems.synthetic_problem("strongly-convex", 4, 2, 2, 0).meta
    assert {"a", "b", "A", "c"} <= meta.keys()
