"""The benchmark's own tests.

    python3 -m pytest dagbench/selftest.py

(The file is not named ``test_*.py`` on purpose, so that the repository's
test suite does not collect it; the smoke runs here take about a minute.)

They run each workload at a tiny size and check that it completes, that an
interrupted run leaves no process and prints no result, that a checkout
without sources fails fast, and that broken outputs trip the correctness
checks.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from dagopt.problems import centralized_oracle, desk_ev_spec, ev_problem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ROUNDS = {"ev-m1000": 5, "sc-m10-5seeds": 50, "truthful-ev-m20": 20}


def _start(args, cwd=ROOT):
    return subprocess.Popen(
        [sys.executable, str(Path(cwd) / "dagbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )


def _assert_group_gone(proc) -> None:
    """No process is left in the run's process group once it has exited."""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _finish(proc, timeout=180):
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
    _assert_group_gone(proc)
    return out, err


def _result(out: str) -> dict:
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_completes(name):
    proc = _start(["--workload", name, "--seed", "3", "--seconds", "0.1", "--rounds", str(TINY_ROUNDS[name])])
    out, err = _finish(proc)
    # a tiny run is too short for the rate checks, so exit 1 (a check failed) is allowed
    assert proc.returncode in (0, 1), err
    result = _result(out)
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".bench_out").exists()


def test_tiny_traced_run_reports_every_layer():
    args = ["--workload", "truthful-ev-m20", "--seed", "0", "--seconds", "0.1", "--trace", "1", "--rounds", "20"]
    proc = _start(args)
    out, err = _finish(proc)
    assert proc.returncode in (0, 1), err
    metrics = _result(out)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["engine.step_baseline.self_s"]["value"] > 0
    assert metrics["privacy.epsilon.self_s"]["value"] > 0
    # 5 seeds x 2 noise-injected runs x 20 agents x (zeta + xi per round, and one terminal zeta)
    assert metrics["schedules.noise_vector.calls"]["value"] == 5 * 2 * 20 * (2 * 20 + 1)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_run_prints_no_result_and_leaves_nothing(signum):
    proc = _start(["--workload", "sc-m10-5seeds", "--seed", "0", "--seconds", "60"])
    try:
        assert proc.stdout.readline().startswith("# env ")  # the run is past its imports
        proc.send_signal(signum)
    finally:
        out, err = _finish(proc, timeout=60)
    assert proc.returncode == 2, err
    assert "{" not in out
    assert not (ROOT / ".bench_out").exists()


def test_checkout_without_sources_fails_fast(tmp_path):
    shutil.copytree(HERE, tmp_path / "dagbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _start(["--workload", "truthful-ev-m20", "--seed", "0", "--seconds", "10"], cwd=tmp_path)
    out, err = _finish(proc, timeout=60)
    assert proc.returncode != 0
    assert "{" not in out
    assert "no dagopt sources" in err


# ---------------------------------------------------------------------------
# the checks trip on broken outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ev_solution():
    problem = ev_problem(desk_ev_spec(20))
    return problem.meta["spec"], centralized_oracle(problem).x_star


def test_ev_checks_pass_on_the_oracle(ev_solution):
    spec, x_star = ev_solution
    assert workloads.ev_schedule_problems(x_star, spec) == []
    assert workloads.ev_kkt_residual(x_star, spec) <= workloads.KKT_TOL


def test_infeasible_schedule_trips_the_ev_check(ev_solution):
    spec, x_star = ev_solution
    over_cap = x_star.copy()
    over_cap[0, 0] = spec.x_max[0, 0] + 1e-6
    assert any("rate box" in p for p in workloads.ev_schedule_problems(over_cap, spec))
    short = x_star.copy()
    short[1] *= 0.99
    assert any("energy budget" in p for p in workloads.ev_schedule_problems(short, spec))


def test_suboptimal_schedule_trips_the_kkt_check(ev_solution):
    spec, x_star = ev_solution
    i = 0
    free = np.nonzero((x_star[i] > 1e-3) & (x_star[i] < spec.x_max[i] - 1e-3))[0]
    assert len(free) >= 2
    moved = x_star.copy()
    moved[i, free[0]] += 1e-3  # still feasible: mass moves between two free slots
    moved[i, free[1]] -= 1e-3
    assert workloads.ev_schedule_problems(moved, spec) == []
    assert workloads.ev_kkt_residual(moved, spec) > workloads.KKT_TOL


def _sc_case(slope, x_shift=0.0, diverged_at=None):
    from dagopt.problems import synthetic_problem

    problem = synthetic_problem("strongly-convex", m=4, n_i=3, d=3, seed=0)
    oracle = centralized_oracle(problem)
    state = types.SimpleNamespace(x=oracle.x_star, problem=problem, t=10)
    result = types.SimpleNamespace(final_state=state, diverged_at=diverged_at, records=[])
    op = workloads.Op(types.SimpleNamespace(x_star=oracle.x_star + x_shift), result, seconds=0.0)
    return types.SimpleNamespace(slope=slope), [op]


def test_sc_check_passes_and_trips_on_a_flipped_slope():
    assert workloads.check_sc_convergence(*_sc_case(-1.57)) == []
    assert any("slope" in p for p in workloads.check_sc_convergence(*_sc_case(+1.57)))


def test_diverged_operation_fails():
    summary, ops = _sc_case(-1.57, diverged_at=7)
    assert workloads.check_experiment("sc-m10-5seeds", summary, ops) == []
    assert ops[0].failed and "diverged at t=7" in ops[0].problems


def test_sc_check_trips_on_a_wrong_oracle():
    assert any("L-BFGS-B" in p for p in workloads.check_sc_convergence(*_sc_case(-1.57, x_shift=1e-3)))


def test_truthfulness_check_trips_on_gains_above_eta_or_swapped_medians():
    ok = types.SimpleNamespace(eta=1.0, rows=[(s, 0.1, 0.5, 1.0, 0.0) for s in range(5)])
    assert workloads.check_truthfulness(ok, []) == []
    over = types.SimpleNamespace(eta=1.0, rows=[(0, 2.0, 0.5, 1.0, 0.0)] + ok.rows[1:])
    assert any("above eta" in p for p in workloads.check_truthfulness(over, []))
    swapped = types.SimpleNamespace(eta=1.0, rows=[(s, 0.5, 0.1, 1.0, 0.0) for s in range(5)])
    assert any("median gain" in p for p in workloads.check_truthfulness(swapped, []))


# ---------------------------------------------------------------------------
# tracer bookkeeping
# ---------------------------------------------------------------------------


def test_tracer_self_time_excludes_wrapped_children_and_uninstalls():
    mod = types.SimpleNamespace()

    def inner(n):
        return sum(range(n))

    def outer(n):
        return mod.inner(n) + mod.inner(n)

    mod.inner, mod.outer = inner, outer
    tr = tracer.Tracer()
    tr.patch(mod, "inner", "inner")
    tr.patch(mod, "outer", "outer")
    assert mod.outer(10_000) == 2 * sum(range(10_000))
    s_in, s_out = tr.stats["inner"], tr.stats["outer"]
    assert (s_in.calls, s_out.calls) == (2, 1)
    assert s_in.self_s == pytest.approx(s_in.total_s)
    assert s_out.self_s == pytest.approx(s_out.total_s - s_in.total_s)
    tr.uninstall()
    assert mod.inner is inner and mod.outer is outer
