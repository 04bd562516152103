"""Config parsing, experiment orchestration, output emission, and the CLI."""

import dataclasses
import pathlib

import numpy as np
import pytest

from dagopt.errors import ConfigError, DagoptError
from dagopt.harness import cli, config
from dagopt.harness.config import (
    apply_preset,
    build_network,
    build_problem,
    build_schedules,
    config_to_text,
    default_config,
    manifest_hash,
    parse_config,
)
from dagopt.harness.experiments import (
    AdjacentScenario,
    emit_outputs,
    fit_loglog_slope,
    input_data_hash,
    perturb_spec,
    run_convergence_experiment,
    run_robustness_experiment,
    run_truthfulness_experiment,
)
from dagopt.harness.svgplot import Series, line_plot
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
        sch = build_schedules(cfg, dim=prob.d)
        assert W.m == prob.m == cfg.m
        assert sch.noise.dim == prob.d


class TestSlopeFit:
    def test_recovers_power_law_exponent(self):
        class R:
            def __init__(self, t, v):
                self.t = t
                self.err_x = v
                self.diverged = False

        recs = [R(t, 5.0 * t**-1.4) for t in range(1, 2001)]
        slope = fit_loglog_slope(recs, "err_x", 100, 2000)
        assert slope == pytest.approx(-1.4, abs=1e-6)


class TestSvg:
    def test_line_plot_structure(self):
        s = Series("curve-a", [1, 10, 100], [1.0, 0.1, 0.01])
        svg = line_plot([s], title="t", xlabel="x", ylabel="y", xlog=True, ylog=True)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg and "curve-a" in svg

    def test_log_plot_drops_nonpositive_points(self):
        s = Series("a", [1, 2, 3], [1.0, -5.0, 4.0])
        svg = line_plot([s], title="", xlabel="", ylabel="", xlog=False, ylog=True)
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


def _run_kind(cfg):
    if cfg.kind == "convergence":
        return run_convergence_experiment(cfg)
    if cfg.kind == "robustness":
        return run_robustness_experiment(cfg)
    scenario = AdjacentScenario(agents=cfg.untruthful_agents, shift_fraction=cfg.shift_fraction,
                                pivot_slot=cfg.pivot_slot)
    return run_truthfulness_experiment(cfg, scenario)


_SMALL = {
    "convergence": "[experiment]\nkind = convergence\nT = 20\n[problem]\nproblem = strongly-convex\nm = 6\n",
    "robustness": "[experiment]\nkind = robustness\nT = 100\n[schedules]\npreset = sec5-truthful\n",
    "truthfulness": "[experiment]\nkind = truthfulness\n[schedules]\npreset = sec5-truthful\n"
                    "[truthfulness]\ntruthful_T = 60\n",
}


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
        _run_kind(cfg)
        assert 1 <= len(calls) <= most

    @pytest.mark.parametrize("kind", ["robustness", "truthfulness"])
    def test_outputs_identical_across_worker_counts(self, tmp_path, kind):
        # 5 seeds over 2 workers gives uneven chunks (2 + 3)
        cfg = dataclasses.replace(parse_config(_SMALL[kind]), seeds=(0, 1, 2, 3, 4))
        outputs = {}
        for workers in (1, 2, 5):
            out = tmp_path / str(workers)
            emit_outputs(_run_kind(dataclasses.replace(cfg, workers=workers)), out)
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            # the manifest also holds the per-seed verdicts; only its config
            # hash and worker count may differ
            manifest = files.pop("manifest.txt").decode().splitlines()
            files["manifest.txt"] = [l for l in manifest if not l.startswith(("config_hash =", "workers ="))]
            outputs[workers] = files
        assert len(outputs[1]) >= 2
        assert outputs[2] == outputs[1]
        assert outputs[5] == outputs[1]


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
        # noise drawn once per (seed, iteration, tag)
        assert summary.slope_metric == "grad_norm_sq"
        assert summary.slope == pytest.approx(0.0010695915423382996, rel=1e-9)

    def test_repeat_emission_identical_bytes(self, tmp_path):
        cfg = dataclasses.replace(default_config(), T=40, stride=10, seeds=(0,))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            emit_outputs(run_convergence_experiment(cfg), out)
        for name in ("metrics.csv", "curve.svg", "manifest.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_records_input_data_hash(self, tmp_path):
        cfg = dataclasses.replace(parse_config(_SMALL["truthfulness"]), seeds=(0, 1))
        found = []
        for run, workers in enumerate((1, 1, 2)):
            out = tmp_path / str(run)
            emit_outputs(_run_kind(dataclasses.replace(cfg, workers=workers)), out)
            manifest = (out / "manifest.txt").read_text().splitlines()
            found.append([l for l in manifest if l.startswith("input_data_hash")])
        digest = input_data_hash()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert found == [[f"input_data_hash = {digest}"]] * 3
        # a synthetic problem reads no data file
        emit_outputs(_run_kind(parse_config(_SMALL["convergence"])), tmp_path / "sc")
        assert "input_data_hash" not in (tmp_path / "sc" / "manifest.txt").read_text()


class TestCli:
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

    def test_gradcheck_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nkind = gradcheck\n[problem]\nproblem = strongly-convex\nm = 4\nn = 2\nd = 2\n")
        assert cli.main(["gradcheck", str(cfg_path), "--points", "3"]) == 0

    def test_lemma2_subcommand(self):
        assert cli.main(["lemma2", "5", "200", "--seed", "0"]) == 0

    def test_validate_graph_subcommand(self, tmp_path):
        from dagopt.network import generate_k_regular, save_edgelist

        path = tmp_path / "g.edges"
        save_edgelist(generate_k_regular(12, 4, seed=0), path)
        assert cli.main(["validate-graph", str(path), "--edge-weight", "0.12"]) == 0

    def test_privacy_report_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nkind = privacy-report\nT = 100\n"
            f"output_dir = {tmp_path / 'out'}\n"
            "[schedules]\npreset = sec5-truthful\n"
        )
        assert cli.main(["privacy-report", str(cfg_path)]) == 0

    def test_assertion_failure_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nkind = gradcheck\n")
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
        ],
        ids=["unknown-kind", "non-integer-T", "truthfulness-not-ev", "ev-with-4-slots",
             "edge-weight-0", "edge-weight-inf", "edge-weight-1e308"],
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

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DAGOPT_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nkind = convergence\nT = 20\nstride = 10\nseeds = 0\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()
