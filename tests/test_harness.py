"""Config parsing, experiment orchestration, output emission, and the CLI."""

import csv
import dataclasses
import os
import pathlib
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from test_network import save_edgelist

from dagopt import engine, privacy
from dagopt.errors import ConfigError, DagoptError
from dagopt.harness import cli, config
from dagopt.harness.config import (
    apply_preset,
    build_instance,
    build_network,
    build_problem,
    build_schedules,
    config_to_text,
    default_config,
    manifest_hash,
    parse_config,
)
from dagopt.harness.experiments import (
    KINDS,
    AdjacentScenario,
    _drop_state,
    _execute,
    emit_outputs,
    fit_loglog_slope,
    input_data_hash,
    perturb_spec,
    run_convergence_experiment,
    run_robustness_experiment,
    run_truthfulness_experiment,
)
from dagopt.harness.svgplot import Series, line_plot
from dagopt.problems import oracle as oracle_module
from dagopt.problems.base import F_value
from dagopt.problems.ev import desk_ev_spec


class TestConfig:
    def test_dump_parse_round_trip(self):
        cfg = dataclasses.replace(default_config(), T=123, seeds=(3, 4), edge_weight=0.11)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(DagoptError):
            parse_config("[experiment]\nbogus_key = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(DagoptError):
            parse_config("[nonsense]\nT = 5\n")

    def test_privacy_section_rejected(self):
        # there is no privacy knob: a target epsilon must not be accepted and ignored
        with pytest.raises(ConfigError):
            parse_config("[privacy]\ntarget_epsilon = 1.0\n")

    @pytest.mark.parametrize(
        "preset", ["corollary1-sc", "corollary1-cvx", "corollary1-ncvx", "sec5-convergence", "sec5-truthful"]
    )
    def test_all_presets_resolve(self, preset):
        cfg = apply_preset(default_config(), preset)
        assert cfg.preset == preset

    def test_unknown_preset_rejected(self):
        with pytest.raises(DagoptError):
            apply_preset(default_config(), "corollary9")

    def test_explicit_override_wins_over_preset(self):
        text = "[schedules]\npreset = sec5-truthful\nu = 2.9\n"
        cfg = parse_config(text)
        assert cfg.u == 2.9 and cfg.w1 == 1.2

    def test_manifest_hash_sensitivity(self):
        base = default_config()
        assert manifest_hash(base) == manifest_hash(default_config())
        for changed in (
            dataclasses.replace(base, T=base.T + 1),
            dataclasses.replace(base, edge_weight=0.13),
            dataclasses.replace(base, seeds=(0,)),
        ):
            assert manifest_hash(changed) != manifest_hash(base)

    @pytest.mark.parametrize("text", ["[experiment]\nkind = bogus\n", "[experiment]\nT = abc\n",
                                      "[experiment]\nseeds = 0,x\n", "[topology]\nedge_weight = heavy\n",
                                      "[schedules]\nnoise_enabled = flase\n", "T = 5\n",
                                      "[topology]\nedge_weight = 0\n", "[topology]\nedge_weight = -0.1\n",
                                      "[topology]\nedge_weight = inf\n", "[topology]\nedge_weight = nan\n"])
    def test_bad_values_raise_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_integral_float_literals_accepted(self):
        cfg = parse_config("[experiment]\nT = 1e5\nstride = 1.0\n")
        assert (cfg.T, cfg.stride) == (100_000, 1)

    @pytest.mark.parametrize("problem", ["n = 4\n", "d = 4\n", "n = 4\nd = 4\n"])
    def test_ev_slot_count_cannot_be_overridden(self, problem):
        # the EV instance always has 13 hourly slots; another n or d would be
        # written to the manifest and then ignored
        with pytest.raises(ConfigError, match="13 hourly slots"):
            parse_config("[problem]\nproblem = ev\n" + problem)

    @pytest.mark.parametrize("problem", ["strongly-convex", "convex", "nonconvex"])
    def test_truthfulness_requires_ev(self, problem):
        # the truthfulness experiment always runs the EV instance; any other
        # problem would be named in the manifest and then ignored
        with pytest.raises(ConfigError, match="problem must be ev"):
            parse_config(f"[experiment]\nkind = truthfulness\n[problem]\nproblem = {problem}\n")

    def test_builders_consistent_dimensions(self):
        cfg = default_config()
        prob = build_problem(cfg)
        W = build_network(cfg)
        sch = build_schedules(cfg)
        assert W.m == prob.m == cfg.m


class TestSlopeFit:
    def test_recovers_power_law_exponent(self):
        class R:
            def __init__(self, t, v):
                self.t = t
                self.err_x = v

        recs = [R(t, 5.0 * t**-1.4) for t in range(1, 2001)]
        slope = fit_loglog_slope(recs, "err_x", 100, 2000)
        assert slope == pytest.approx(-1.4, abs=1e-6)


class TestSvg:
    def test_line_plot_structure(self):
        s = Series("curve-a", [1, 10, 100], [1.0, 0.1, 0.01])
        svg = line_plot([s], title="t", xlabel="x", ylabel="y")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg and "curve-a" in svg

    def test_log_plot_drops_nonpositive_points(self):
        s = Series("a", [1, 2, 3], [1.0, -5.0, 4.0])
        svg = line_plot([s], title="", xlabel="", ylabel="")
        assert "polyline" in svg  # remaining points still plotted


class TestPerturbation:
    def test_only_listed_agents_change(self):
        spec = desk_ev_spec(20)
        new = perturb_spec(spec, AdjacentScenario(agents=(2, 3), shift_fraction=0.4, pivot_slot=3))
        changed = [i for i in range(20) if not np.array_equal(spec.d[i], new.d[i])]
        assert changed == [2, 3]

    def test_total_demand_preserved(self):
        spec = desk_ev_spec(20)
        new = perturb_spec(spec, AdjacentScenario(agents=(5,), shift_fraction=0.4, pivot_slot=3))
        assert new.d[5].sum() == pytest.approx(spec.d[5].sum(), rel=1e-12)
        # mass moved from pre-pivot slots to post-pivot slots
        assert new.d[5, :3].sum() < spec.d[5, :3].sum()
        assert new.d[5, 3:].sum() > spec.d[5, 3:].sum()

    def test_perturbed_spec_keeps_the_psi_cap(self):
        spec = desk_ev_spec(20)
        new = perturb_spec(spec, AdjacentScenario(agents=(2, 3), shift_fraction=0.4, pivot_slot=3))
        assert new.psi_cap == spec.psi_cap
        assert new.scale == spec.scale and new.dcoeff == spec.dcoeff

    def test_zero_shift_is_identity(self):
        spec = desk_ev_spec(20)
        new = perturb_spec(spec, AdjacentScenario(agents=(2,), shift_fraction=0.0, pivot_slot=3))
        assert np.array_equal(spec.d, new.d)


class TestTruthfulnessPlumbing:
    def test_identical_problems_give_zero_gain(self):
        cfg = apply_preset(default_config(), "sec5-truthful")
        cfg = dataclasses.replace(cfg, kind="truthfulness", truthful_T=150, seeds=(0, 1))
        scen = AdjacentScenario(agents=(2, 3), shift_fraction=0.0, pivot_slot=3)
        summary = run_truthfulness_experiment(cfg, scen)
        for _, gain_alg1, gain_naive, _, inflation in summary.rows:
            assert gain_alg1 == 0.0
            assert gain_naive == 0.0
            assert inflation == 0.0


_SMALL = {
    "convergence": "[experiment]\nkind = convergence\nT = 20\n[problem]\nproblem = strongly-convex\nm = 6\n",
    "robustness": "[experiment]\nkind = robustness\nT = 100\n[schedules]\npreset = sec5-truthful\n",
    "truthfulness": "[experiment]\nkind = truthfulness\n[schedules]\npreset = sec5-truthful\n"
                    "[truthfulness]\ntruthful_T = 60\n",
}


def _emitted_files(summary, out) -> dict:
    """The files ``emit_outputs`` writes, by name.  The manifest also holds
    the per-seed verdicts; only its config hash and worker count may differ
    between worker counts, so those two lines are left out."""
    emit_outputs(summary, out)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = files.pop("manifest.txt").decode().splitlines()
    files["manifest.txt"] = [l for l in manifest if not l.startswith(("config_hash =", "workers ="))]
    return files


class TestKinds:
    def test_run_table_holds_the_config_kinds_and_each_writes_the_files_readme_documents(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n`dagopt run` writes these files", 1)[1].split("\n\n", 2)[1]
        documented = {row.split(" | ")[0].strip("| `"): re.findall(r"`([^`]+)`", row.split(" | ", 1)[1])
                      for row in table.splitlines()[2:]}
        assert set(KINDS) == set(config.EXPERIMENT_KINDS) == set(documented)
        for kind, run in KINDS.items():
            summary = run(dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0,)))
            assert [name for name, _ in summary.files()] == documented[kind], kind


class TestSeedChunks:
    @pytest.mark.parametrize("kind,most", [("convergence", 1), ("robustness", 1), ("truthfulness", 2)])
    def test_network_built_once_per_experiment(self, monkeypatch, kind, most):
        calls = []
        build = config.build_weight_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(config, "build_weight_matrix", counted)
        cfg = dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0, 1, 2), workers=1)
        KINDS[kind](cfg)
        assert 1 <= len(calls) <= most

    @pytest.mark.parametrize("kind", ["convergence", "robustness", "truthfulness"])
    def test_instance_built_once_per_experiment(self, monkeypatch, kind):
        # the oracle, the privacy budget and every seed chunk share one instance
        calls = []
        for name in ("build_weight_matrix", "ev_problem", "synthetic_problem"):
            def spy(*args, _name=name, _build=getattr(config, name)):
                calls.append(_name)
                return _build(*args)

            monkeypatch.setattr(config, name, spy)
        cfg = dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0, 1, 2), workers=1)
        KINDS[kind](cfg)
        problem = "ev_problem" if cfg.problem == "ev" else "synthetic_problem"
        assert sorted(calls) == sorted(["build_weight_matrix", problem])

    @pytest.mark.parametrize("kind", ["convergence", "robustness", "truthfulness"])
    def test_outputs_identical_across_worker_counts(self, tmp_path, kind):
        # 5 seeds over 2 workers gives uneven chunks (2 + 3)
        cfg = dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0, 1, 2, 3, 4))
        outputs = {workers: _emitted_files(KINDS[kind](dataclasses.replace(cfg, workers=workers)),
                                           tmp_path / str(workers))
                   for workers in (1, 2, 5)}
        assert len(outputs[1]) >= 2
        assert outputs[2] == outputs[1]
        assert outputs[5] == outputs[1]

    def test_worker_results_leave_the_final_state_behind(self, monkeypatch):
        # a chunk in another process pickles its results back; the final
        # state (problem, W, streams, iterates) of an EV m=1000 run is ~840 KiB
        captured = []
        run = engine.run

        def spy(*args, **kwargs):
            captured.append(run(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(engine, "run", spy)
        cfg = dataclasses.replace(default_config(), m=1000, T=20, seeds=(0,))
        [result] = _execute(cfg, (build_instance(cfg),), [(0, "alg1", True, 0)], cfg.T, _drop_state)
        assert result.final_state is None
        assert len(pickle.dumps(result)) < 16 * 1024
        # engine.run's own result is not mutated: callers of engine.run read it
        [own] = captured
        assert own.final_state is not None and own.final_state.t == 20
        assert own.records == result.records

    def test_equal_runs_run_once_and_come_back_in_list_order(self, monkeypatch):
        calls = []
        run = engine.run

        def spy(state, T, **kwargs):
            calls.append((kwargs["stepper"], state.streams is not None))
            return run(state, T, **kwargs)

        monkeypatch.setattr(engine, "run", spy)
        cfg = dataclasses.replace(parse_config(_SMALL["convergence"]), workers=1)
        a, b = (0, "alg1", True, 0), (0, "baseline", False, 1)
        results = _execute(cfg, (build_instance(cfg),), [a, b, a, b, a], cfg.T, _drop_state, stride=5)
        assert calls == [("alg1", True), ("baseline", False)]
        assert results[0] is results[2] is results[4] and results[1] is results[3]
        assert results[0].records != results[1].records

    def test_one_seed_robustness_split_over_two_workers(self, tmp_path):
        # its two runs land in two processes; the files must not change
        cfg = dataclasses.replace(parse_config(_SMALL["robustness"]), seeds=(3,))
        outputs = {workers: _emitted_files(run_robustness_experiment(dataclasses.replace(cfg, workers=workers)),
                                           tmp_path / str(workers))
                   for workers in (1, 2)}
        assert len(outputs[1]) == 4 and outputs[2] == outputs[1]


def legacy_truthfulness_job(cfg, seeds, scenario):
    """The four-runs-per-seed loop that the truthfulness run list replaced,
    kept as its bit-for-bit reference: per seed, the noise-injected and the
    noise-free pair, each on the true and on the perturbed demand.  Returns
    per seed (seed, gain_alg1, gain_naive, inflation)."""
    from dagopt.harness import experiments as ex

    true_problem, W, schedules = config.build_instance(cfg)
    true_spec = true_problem.meta["spec"]
    psi_cap = true_spec.psi_cap
    fake_problem = ex.ev_problem(perturb_spec(true_spec, scenario))
    T = cfg.truthful_T
    window = np.zeros(true_spec.d.shape[1], dtype=bool)
    window[scenario.pivot_slot:] = True

    def evaluate(final_state):
        prices_pred = true_spec.price_coeff * np.clip(final_state.psi.mean(axis=0), 0.0, psi_cap) ** true_spec.price_exp
        x_eval = final_state.x.copy()
        for i in scenario.agents:
            x_eval[i] = ex._liar_schedule(prices_pred, true_spec.x_max[i], true_spec.E[i], window)
        phi_eval = true_problem.eval_g_all(x_eval).mean(axis=0)
        psi_eval = np.broadcast_to(phi_eval, (true_problem.m, true_problem.d))
        cost = sum(true_problem.eval_f_all(x_eval, psi_eval)[list(scenario.agents)])
        return float(cost), F_value(true_problem, x_eval)

    out = []
    for seed in seeds:
        gains = {}
        for stepper, noise_enabled in (("alg1", True), ("baseline", False)):
            (cost_p, F_p), (cost_q, F_q) = (
                evaluate(engine.run(engine.init_run(problem, W, schedules, seed, x0_policy=cfg.x0_policy,
                                                    noise_enabled=noise_enabled),
                                    T, stride=max(T, 1), stepper=stepper, baseline_lambda=cfg.baseline_lambda,
                                    track_weighted=False).final_state)
                for problem in (true_problem, fake_problem)
            )
            gains[stepper] = (cost_p - cost_q, F_q - F_p)
        out.append((seed, gains["alg1"][0], gains["baseline"][0], gains["alg1"][1]))
    return out


class TestTruthfulnessRuns:
    @pytest.mark.parametrize("x0_policy,noise_free", [("project-zero", 2), ("random-feasible", 6)])
    def test_noise_free_pair_runs_once_per_distinct_x0(self, monkeypatch, x0_policy, noise_free):
        # only a random-feasible x0 reads the seed in a noise-free run
        cfg = dataclasses.replace(parse_config(_SMALL["truthfulness"]), seeds=(0, 1, 2), workers=1,
                                  x0_policy=x0_policy)
        scenario = AdjacentScenario(agents=cfg.untruthful_agents, shift_fraction=cfg.shift_fraction,
                                    pivot_slot=cfg.pivot_slot)
        ref = legacy_truthfulness_job(cfg, cfg.seeds, scenario)
        noise = []
        init_run = engine.init_run

        def spy(*args, **kwargs):
            noise.append(kwargs["noise_enabled"])
            return init_run(*args, **kwargs)

        monkeypatch.setattr(engine, "init_run", spy)
        summary = run_truthfulness_experiment(cfg, scenario)
        assert noise.count(False) == noise_free
        assert noise.count(True) == 2 * len(cfg.seeds)
        assert summary.rows == [(seed, g_alg1, g_naive, summary.eta, inflation)
                                for seed, g_alg1, g_naive, inflation in ref]


class TestEmission:
    def test_convergence_outputs(self, tmp_path):
        cfg = dataclasses.replace(default_config(), T=60, stride=10, seeds=(0, 1))
        summary = run_convergence_experiment(cfg)
        emit_outputs(summary, tmp_path)
        csv_path = tmp_path / "metrics.csv"
        assert csv_path.exists() and (tmp_path / "curve.svg").exists()
        lines = [l for l in csv_path.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1 + 60 // 10 + 1  # header + T/stride + 1 records
        manifest = (tmp_path / "manifest.txt").read_text()
        assert manifest_hash(cfg) in manifest

    def test_diverged_baseline_run_is_flagged_and_trails_its_csv_with_its_round(self, monkeypatch):
        # the exploded tracker of the engine's divergence test, in the baseline
        # run of a robustness seed: it diverges at round 1
        step_baseline = engine.step_baseline

        def exploding(st, lam):
            if st.t == 0:
                st.y = st.y + 1e13
            return step_baseline(st, lam=lam)

        monkeypatch.setattr(engine, "step_baseline", exploding)
        cfg = dataclasses.replace(parse_config(_SMALL["robustness"]), seeds=(0,), workers=1)
        summary = run_robustness_experiment(cfg)
        [(va, vb)] = summary.verdicts.values()
        assert vb.flagged and not va.flagged
        files = dict(summary.files())
        assert files["metrics_baseline.csv"].endswith("\n# diverged_at,1\n")
        assert files["metrics.csv"].endswith("\n# diverged_at,\n")
        out, err, _ = summary.verdict()
        assert out == ["robustness: baseline flagged on 1/1 seeds, noise-injected tracker flagged on 0/1"]
        assert err == []

    def test_nonconvex_run_writes_nan_without_an_oracle(self, tmp_path):
        cfg = parse_config(
            "[experiment]\nkind = convergence\nT = 200\nstride = 10\nseeds = 0\n"
            "[problem]\nproblem = nonconvex\nm = 6\nn = 4\nd = 4\n"
            "[schedules]\npreset = corollary1-ncvx\n"
        )
        summary = run_convergence_experiment(cfg)
        emit_outputs(summary, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 21
        for col in ("err_x", "gap_F"):
            assert all(row[header.index(col)] == "nan" for row in rows), col
        # the fitted grad_norm_sq slope does not depend on F*; pinned to the
        # noise drawn from one stream per (seed, tag)
        assert summary.slope_metric == "grad_norm_sq"
        assert summary.slope == pytest.approx(0.0005647712051968013, rel=1e-9)

    def test_repeat_emission_identical_bytes(self, tmp_path):
        cfg = dataclasses.replace(default_config(), T=40, stride=10, seeds=(0,))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            emit_outputs(run_convergence_experiment(cfg), out)
        for name in ("metrics.csv", "curve.svg", "manifest.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("kind", ["convergence", "robustness", "truthfulness"])
    def test_manifest_records_versions_and_log_kernel(self, tmp_path, kind):
        import scipy

        found = []
        for run in range(2):
            out = tmp_path / str(run)
            emit_outputs(KINDS[kind](dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0,))), out)
            found.append((out / "manifest.txt").read_text().splitlines())
        assert found[0] == found[1]
        keys = ("dagopt_version", "numpy_version", "scipy_version", "numpy_log_target")
        lines = {key: [l for l in found[0] if l.startswith(f"{key} = ")] for key in keys}
        assert all(len(v) == 1 for v in lines.values()), lines
        assert lines["numpy_version"] == [f"numpy_version = {np.__version__}"]
        assert lines["scipy_version"] == [f"scipy_version = {scipy.__version__}"]
        assert lines["numpy_log_target"][0].split(" = ")[1]

    @pytest.mark.parametrize("kind", ["convergence", "robustness"])
    def test_manifest_records_the_oracle_stopping_state(self, tmp_path, kind):
        emit_outputs(KINDS[kind](dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0,))), tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        found = {key: [l.split(" = ")[1] for l in manifest if l.startswith(f"oracle_{key} = ")]
                 for key in ("iterations", "pg_norm", "converged")}
        assert found["converged"] == ["True"]
        assert int(found["iterations"][0]) >= 1
        assert float(found["pg_norm"][0]) < oracle_module.TOL

    def test_nonconvex_manifest_has_no_oracle_lines(self, tmp_path):
        cfg = parse_config("[experiment]\nkind = convergence\nT = 20\nseeds = 0\n"
                           "[problem]\nproblem = nonconvex\nm = 6\nn = 4\nd = 4\n")
        emit_outputs(run_convergence_experiment(cfg), tmp_path)
        assert "oracle_" not in (tmp_path / "manifest.txt").read_text()

    def test_manifest_records_input_data_hash(self, tmp_path):
        cfg = dataclasses.replace(parse_config(_SMALL["truthfulness"]), seeds=(0, 1))
        found = []
        for run, workers in enumerate((1, 1, 2)):
            out = tmp_path / str(run)
            emit_outputs(KINDS["truthfulness"](dataclasses.replace(cfg, workers=workers)), out)
            manifest = (out / "manifest.txt").read_text().splitlines()
            found.append([l for l in manifest if l.startswith("input_data_hash")])
        digest = input_data_hash()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert found == [[f"input_data_hash = {digest}"]] * 3
        # a synthetic problem reads no data file
        emit_outputs(KINDS["convergence"](parse_config(_SMALL["convergence"])), tmp_path / "sc")
        assert "input_data_hash" not in (tmp_path / "sc" / "manifest.txt").read_text()


def live_children(pid):
    """(pid, command line) of every process whose parent is ``pid`` and that
    is not a zombie, from /proc."""
    out = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, ValueError):  # the process ended while it was read
            continue
        if int(ppid) == pid and state != "Z":
            out.append((int(entry.name), cmdline))
    return out


def is_live(pid):
    try:
        return (pathlib.Path("/proc") / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_until(condition, seconds, what):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, what()
        time.sleep(0.05)


class TestCli:
    def test_sigterm_stops_the_worker_pool(self, tmp_path):
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text("[experiment]\nkind = convergence\nT = 1000000\nstride = 1000\nseeds = 0, 1\n"
                            f"workers = 2\noutput_dir = {tmp_path / 'out'}\n[problem]\nproblem = strongly-convex\nm = 6\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "dagopt.harness.cli", "run", str(cfg_path)], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        children = []
        try:
            def two_workers():
                assert proc.poll() is None, proc.stderr.read()
                return sum("spawn_main" in cmd for _, cmd in live_children(proc.pid)) == 2

            wait_until(two_workers, 120, lambda: live_children(proc.pid))
            children = live_children(proc.pid)  # the workers and the resource tracker
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
            wait_until(lambda: not any(is_live(pid) for pid, _ in children), 30,
                       lambda: [c for c in children if is_live(c[0])])
        finally:
            for pid in [proc.pid] + [pid for pid, _ in children]:
                if is_live(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()
        assert not (tmp_path / "out").exists()

    def test_print_config(self, capsys):
        assert cli.main(["--print-config"]) == 0
        assert "[experiment]" in capsys.readouterr().out

    def test_run_convergence_from_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nkind = convergence\nT = 40\nstride = 10\nseeds = 0\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_diverged_convergence_run_names_each_seed_and_round(self, tmp_path, capsys):
        # both seeds diverge at t = 8, between the record rounds 0 and 10
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nkind = convergence\nT = 200\nstride = 10\nseeds = 0, 1\n"
            f"output_dir = {tmp_path / 'out'}\n[problem]\nproblem = strongly-convex\nm = 6\n"
            "[schedules]\npreset = corollary1-sc\nlambda0 = 1e12\nu = 0\nalpha0 = 100\nv = 0\n"
        )
        assert cli.main(["run", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "convergence: slope=nan on err_x, diverged_seeds=[0, 1]\n"
        assert captured.err.splitlines() == ["diverged: seed 0 at t = 8", "diverged: seed 1 at t = 8"]
        assert (tmp_path / "out" / "metrics.csv").read_text().endswith("\n# diverged_at,8\n")
        assert "diverged_seeds = [0, 1]" in (tmp_path / "out" / "manifest.txt").read_text().splitlines()

    def test_gradcheck_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[problem]\nproblem = strongly-convex\nm = 4\nn = 2\nd = 2\n")
        assert cli.main(["gradcheck", str(cfg_path), "--points", "3"]) == 0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gradcheck", "CFG", "--points", "0"], "--points must be >= 1, got 0"),
            (["gradcheck", "CFG", "--points", "-3"], "--points must be >= 1, got -3"),
        ],
        ids=["gradcheck-no-points", "gradcheck-negative-points"],
    )
    def test_count_argument_out_of_range_exits_2_with_one_error_line(self, tmp_path, capsys, argv, message):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("")
        assert cli.main([str(cfg_path) if a == "CFG" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_readme_cli_block_names_the_parsers_subcommands(self, capsys):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {line.split()[1] for line in block.splitlines() if line.startswith("dagopt ")}
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert documented - {"--print-config"} == set(choices.split(","))

    def test_retired_lemma2_command_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lemma2", "5", "200"])
        assert exc.value.code == 2
        assert "invalid choice: 'lemma2'" in capsys.readouterr().err

    def test_validate_graph_subcommand(self, tmp_path):
        from dagopt.network import generate_k_regular

        path = tmp_path / "g.edges"
        save_edgelist(generate_k_regular(12, 4, seed=0), path)
        assert cli.main(["validate-graph", str(path), "--edge-weight", "0.12"]) == 0

    def test_validate_graph_searches_a_disconnected_graph_once(self, tmp_path, capsys, monkeypatch):
        from dagopt.network import Topology

        searches = []
        eccentricity = Topology.eccentricity
        monkeypatch.setattr(Topology, "eccentricity", lambda self: searches.append(1) or eccentricity(self))
        path = tmp_path / "two-pairs.edges"
        save_edgelist(Topology(4, ((0, 1), (2, 3))), path)
        assert cli.main(["validate-graph", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == ["agents: 4, edges: 2, connected: False",
                                                        "FAIL: graph is disconnected"]
        assert len(searches) == 1

    @pytest.mark.parametrize("weight", ["0", "nan", "inf", "-0.1"])
    def test_validate_graph_bad_edge_weight_exits_2_with_one_error_line(self, tmp_path, capsys, weight):
        from dagopt.network import complete_topology

        path = tmp_path / "k10.edges"
        save_edgelist(complete_topology(10), path)
        assert cli.main(["validate-graph", str(path), "--edge-weight", weight]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: edge_weight must be finite and > 0, got {float(weight)}"]

    @pytest.mark.parametrize(
        "text",
        ["1 1\n", "# m 3\n", "0 1 2\n", "0 x\n", "# m 2\n0 5\n", None],
        ids=["self-loop", "header-only", "three-columns", "non-integer", "index-past-m", "missing-file"],
    )
    def test_validate_graph_malformed_edge_list_exits_2_with_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "g.edges"
        if text is not None:
            path.write_text(text)
        assert cli.main(["validate-graph", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read edge list {path}: "), err

    def test_validate_graph_reports_a_matrix_outside_the_band(self, tmp_path, capsys):
        # K10 at 0.12 has delta_m = -1.2: the diagnostic prints its
        # certificate instead of refusing to build the matrix
        from dagopt.network import complete_topology

        path = tmp_path / "k10.edges"
        save_edgelist(complete_topology(10), path)
        assert cli.main(["validate-graph", str(path), "--edge-weight", "0.12"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "violation: smallest eigenvalue -1.2 <= -1" in out
        assert out[-1] == "FAIL"

    def test_privacy_report_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nT = 100\n"
            f"output_dir = {tmp_path / 'out'}\n"
            "[schedules]\npreset = sec5-truthful\n"
        )
        assert cli.main(["privacy-report", str(cfg_path)]) == 0
        # epsilon(100) > 1 at sec5-truthful
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note: ")]
        assert notes == ["note: epsilon outside (0,1); the 2*epsilon linearization in eta is not certified"]

    def test_privacy_report_without_a_certified_budget_writes_the_regime_rows(self, tmp_path, capsys):
        # the default exponents are not T2-truthful, so the budget is refused
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(f"[experiment]\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["privacy-report", str(cfg_path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("budget not certifiable: ")
        printed = [line.split(None, 1)[1].rsplit(": ", 1)[0] for line in out if line.startswith("    ")]
        with open(tmp_path / "out" / "privacy_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["condition"] for r in rows] == printed
        assert {r["regime"] for r in rows} == set(privacy.REGIMES)  # no epsilon or eta rows
        assert any(r["regime"] == "T2-truthful" and r["satisfied"] == "False" for r in rows)

    def test_truthfulness_run_flags_eta_as_not_certified_when_epsilon_exceeds_one(self, tmp_path, capsys):
        # at sec5-truthful, epsilon(250) > 1, so eta's 2*epsilon term is no
        # longer a valid linearization of e^epsilon
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nkind = truthfulness\nseeds = 0\n"
                            f"output_dir = {tmp_path / 'out'}\n"
                            "[schedules]\npreset = sec5-truthful\n[truthfulness]\ntruthful_T = 250\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if l.startswith("note: ")] == [
            "note: epsilon outside (0,1); the 2*epsilon linearization in eta is not certified"]
        manifest = dict(l.split(" = ", 1) for l in (tmp_path / "out" / "manifest.txt").read_text().splitlines()
                        if " = " in l and not l.startswith(("[", "#")))
        assert float(manifest["epsilon"]) > 1.0
        assert manifest["eta_linearization_valid"] == "False"
        assert float(manifest["eta_intrinsic"]) + float(manifest["eta_privacy_term"]) == float(manifest["eta"])
        with open(tmp_path / "out" / "gains.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and [r["eta_linearization_valid"] for r in rows] == ["False"] * len(rows)

    @pytest.mark.parametrize("command,kind_line", [("run", "kind = convergence\n"), ("privacy-report", "")],
                             ids=["run-convergence", "privacy-report"])
    def test_output_dir_naming_a_file_exits_2_with_one_error_line(self, tmp_path, capsys, command, kind_line):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(f"[experiment]\n{kind_line}T = 5\nseeds = 0\noutput_dir = {blocker}\n"
                            "[schedules]\npreset = sec5-truthful\n")
        assert cli.main([command, str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output file "), err

    @pytest.mark.parametrize(
        "command,text,names",
        [
            ("run", "[experiment]\nkind = robustness\nT = 30\nseeds = 0\n[problem]\nproblem = strongly-convex\nm = 6\n",
             ("metrics.csv", "metrics_baseline.csv")),
            ("run", "[experiment]\nkind = truthfulness\nseeds = 0\n[schedules]\npreset = sec5-truthful\n"
             "[truthfulness]\ntruthful_T = 60\n", ("gains.csv",)),
            ("privacy-report", "[experiment]\nT = 100\n[schedules]\npreset = sec5-truthful\n",
             ("privacy_report.csv",)),
        ],
        ids=["robustness", "truthfulness", "privacy-report"],
    )
    def test_emitted_csv_rows_are_as_wide_as_the_header(self, tmp_path, monkeypatch, command, text, names):
        monkeypatch.setenv("DAGOPT_OUTPUT_DIR", str(tmp_path / "out"))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        assert cli.main([command, str(cfg_path)]) in (0, 3)
        for name in names:
            rows = list(csv.reader((tmp_path / "out" / name).read_text().splitlines()))
            if rows[-1][0] == "# diverged_at":  # the records' trailer
                rows.pop()
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), name

    def test_run_config_path_containing_equals_sign(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DAGOPT_OUTPUT_DIR", str(tmp_path / "out"))
        cfg_path = tmp_path / "T=5.ini"
        cfg_path.write_text("[experiment]\nkind = convergence\nT = 5\nseeds = 0\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_assertion_failure_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("")
        # impossible threshold forces the failure path
        assert cli.main(["gradcheck", str(cfg_path), "--points", "1", "--threshold", "0"]) == 2
        # and stderr names the gradient and agent behind it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("point 0: over threshold at ") and " agent " in err[0]

    @pytest.mark.parametrize(
        "text",
        [
            "[experiment]\nkind = bogus\n",
            "[experiment]\nkind = convergence\nT = abc\n",
            "[experiment]\nkind = truthfulness\n[problem]\nproblem = strongly-convex\n",
            "[experiment]\nkind = convergence\n[problem]\nproblem = ev\nn = 4\nd = 4\n",
            *(f"[experiment]\nkind = convergence\nT = 5\n[problem]\nm = 6\n[topology]\ntopology = ring\nedge_weight = {w}\n"
              for w in ("0", "inf", "1e308")),
            *(f"[experiment]\nkind = convergence\nT = 5\nseeds = {s}\n" for s in ("-1", "18446744073709551616")),
            *(f"[experiment]\nkind = truthfulness\nseeds = 0\n[schedules]\npreset = sec5-truthful\n"
              f"[truthfulness]\ntruthful_T = 20\n{kv}\n"
              for kv in ("untruthful_agents =", "untruthful_agents = 20", "untruthful_agents = -1",
                         "untruthful_agents = 2,2", "shift_fraction = -0.1", "shift_fraction = 1.5",
                         "pivot_slot = 0", "pivot_slot = 13")),
            "[experiment]\nkind = truthfulness\nseeds = 0\n[schedules]\npreset = sec5-truthful\n"
            "[truthfulness]\ntruthful_T = -5\n",
            "[experiment]\nkind = convergence\nT = 5\n[problem]\nproblem = strongly-convex\nm = 2\n"
            "[topology]\ntopology = ring\n",
            "[experiment]\nkind = convergence\nT = 5\n[problem]\nproblem = strongly-convex\nm = 0\n",
            *(f"[experiment]\nkind = convergence\nT = 5\n[problem]\nproblem = strongly-convex\nm = 6\nn = 4\nd = 4\n"
              f"problem_seed = {s}\n" for s in ("-1", str(1 << 128))),
            "[experiment]\nkind = convergence\nT = 5\n[topology]\ntopology_seed = -1\n",
            "[experiment]\nkind = convergence\nT = 5\n[problem]\nproblem = strongly-convex\nm = 6\nn = 0\nd = 4\n",
            "[experiment]\nkind = convergence\nT = 5\n[problem]\nproblem = convex\nm = 6\nn = 4\nd = 0\n",
            "[experiment]\nkind = convergence\nT = 5\nseeds = 0,0\n",
            "[experiment]\nkind = convergence\nT = 5\nseeds = 0\nworkers = 0\n",
            *(f"[experiment]\nkind = convergence\nseeds = 0\n{kv}\n"
              for kv in ("T = 1.5", "T = 1e400", "T = 5\n[problem]\nm = 20.7")),
            "[experiment]\nkind = convergence\nT = 5\nseeds = 0\n[schedules]\nx0_policy = random\n",
            *(f"[experiment]\nkind = convergence\nT = 5\nseeds = 0\n[schedules]\n{kv}\n"
              for kv in ("lambda0 = 0", "alpha0 = -1", "gamma1 = inf", "gamma2 = nan", "sigma_zeta = 0",
                         "sigma_xi = 0", "u = nan", "w1 = inf")),
            "[experiment]\nkind = robustness\nT = 5\nseeds = 0\n[robustness]\nbaseline_lambda = nan\n",
            "[experiment]\nkind = convergence\nT = 5\nseeds = 0\n[problem]\nproblem = nonconvex\nm = 1\nn = 1\nd = 1\n"
            "problem_seed = 1\n",
            # the diagnostics are subcommands, not kinds a config may name
            *(f"[experiment]\nkind = {kind}\nT = 5\nseeds = 0\n"
              for kind in ("gradcheck", "privacy-report", "validate-graph")),
        ],
        ids=["unknown-kind", "non-integer-T", "truthfulness-not-ev", "ev-with-4-slots",
             "edge-weight-0", "edge-weight-inf", "edge-weight-1e308", "seed-negative", "seed-2-to-the-64",
             "no-untruthful-agent", "untruthful-agent-m", "untruthful-agent-negative", "untruthful-agent-twice",
             "shift-fraction-negative", "shift-fraction-above-1", "pivot-slot-0", "pivot-slot-13",
             "truthful-T-negative", "ring-m-2", "m-0", "problem-seed-negative", "problem-seed-2-to-the-128",
             "topology-seed-negative", "n-0", "d-0", "seeds-repeated", "workers-0", "T-1.5", "T-1e400", "m-20.7",
             "x0-policy-random", "lambda0-0", "alpha0-negative", "gamma1-inf", "gamma2-nan", "sigma-zeta-0",
             "sigma-xi-0", "u-nan", "w1-inf", "baseline-lambda-nan", "nonconvex-without-curvature",
             "kind-gradcheck", "kind-privacy-report", "kind-validate-graph"],
    )
    def test_config_error_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.setenv("DAGOPT_OUTPUT_DIR", str(tmp_path / "out"))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        assert cli.main(["run", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read config: ")

    @pytest.mark.parametrize("kind", ["convergence", "robustness"])
    def test_unconverged_oracle_warns_once(self, tmp_path, monkeypatch, capsys, kind):
        cfg_path = tmp_path / "exp.ini"
        header = f"[experiment]\nseeds = 0\noutput_dir = {tmp_path / 'out'}\n"
        cfg_path.write_text(_SMALL[kind].replace("[experiment]\n", header, 1))
        assert cli.main(["run", str(cfg_path)]) in (0, 3)
        assert "warning:" not in capsys.readouterr().err
        monkeypatch.setattr(oracle_module, "MAX_ITERS", 2)
        assert cli.main(["run", str(cfg_path)]) in (0, 2, 3)
        err = capsys.readouterr().err.splitlines()
        assert len([l for l in err if l.startswith("warning:")]) == 1, err
        assert "2 iterations" in err[0]
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "oracle_converged = False" in manifest and "oracle_iterations = 2" in manifest

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DAGOPT_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nkind = convergence\nT = 20\nstride = 10\nseeds = 0\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()
