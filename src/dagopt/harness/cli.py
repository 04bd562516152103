"""Command-line front-end.

``run`` looks the config's kind up in ``experiments.KINDS``, writes the
files of the summary it returns and prints that summary's verdict.  The
other subcommands are diagnostics that run no experiment, so a config for
them may omit ``kind``.

Exit codes: 0 success, 2 assertion/validation failure, 3 divergence was
flagged where divergence is the expected outcome (robustness baseline).
The DAGOPT_OUTPUT_DIR environment variable overrides the configured output
directory.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace

import numpy as np

from .. import privacy
from ..errors import ConfigError, DagoptError
from ..network import load_edgelist, uniform_weights, validate_assumption2
from ..problems.gradcheck import finite_diff_check, random_interior_point
from .config import build_instance, build_problem, config_to_text, default_config, parse_config
from .experiments import EXIT_FAIL, EXIT_OK, KINDS, _write, csv_text, emit_outputs, eta_notes


def _load_cfg(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    cfg = parse_config(text)
    out = os.environ.get("DAGOPT_OUTPUT_DIR")
    return replace(cfg, output_dir=out) if out else cfg


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_run(args) -> int:
    cfg = _load_cfg(args.config)
    summary = KINDS[cfg.kind](cfg)
    emit_outputs(summary, cfg.output_dir)
    out, err, code = summary.verdict()
    sys.stderr.writelines(f"{line}\n" for line in err)
    sys.stdout.writelines(f"{line}\n" for line in out)
    return code


def _cmd_validate_graph(args) -> int:
    try:
        topo = load_edgelist(args.edgelist)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read edge list {args.edgelist}: {exc}") from None
    try:
        # uncertified, so that a matrix outside the band is reported, not rejected
        W = uniform_weights(topo, args.edge_weight)
    except ValueError as exc:  # a weight outside (0, inf)
        raise ConfigError(str(exc)) from None
    connected = topo.is_connected()
    print(f"agents: {topo.m}, edges: {len(topo.edges)}, connected: {connected}")
    if not connected:
        print("FAIL: graph is disconnected")
        return EXIT_FAIL
    cert = validate_assumption2(W)
    print(f"second-largest |eigenvalue| offset delta2 = {cert.delta2:.6g}")
    for v in cert.violations:
        print(f"violation: {v}")
    print("PASS" if cert.ok else "FAIL")
    return EXIT_OK if cert.ok else EXIT_FAIL


def _cmd_privacy_report(args) -> int:
    cfg = _load_cfg(args.config)
    problem, W, schedules = build_instance(cfg)
    rows = []
    print("== regime conditions ==")
    for regime in privacy.REGIMES:
        rc = privacy.check_regime(schedules, regime)
        mark = "PASS" if rc.passed else "fail"
        print(f"[{mark}] {regime}")
        for c in rc.checks:
            print(f"    {'ok ' if c.satisfied else 'NO '} {c.name}: {c.left:.4g} vs {c.right:.4g}")
            rows.append((regime, c.name, c.left, c.right, c.satisfied))
    path = os.path.join(cfg.output_dir, "privacy_report.csv")
    header = ("regime", "condition", "left", "right", "satisfied")
    try:
        report = privacy.epsilon(cfg.T, schedules, W)
    except DagoptError as exc:
        _write(path, csv_text(header, rows))  # the regime rows show which condition failed
        print(f"budget not certifiable: {exc}")
        return EXIT_FAIL
    c = problem.constants
    eta_rep = privacy.eta(report.epsilon, c.L_f1, c.L_f2, c.L_g, c.D_X, c.D_f)
    print(f"== budget over T={cfg.T} ==")
    print(f"epsilon = {report.epsilon:.6g} "
          f"(aggregate-tracker {report.eps_psi:.6g} + gradient-tracker {report.eps_y:.6g})")
    print(f"eta = {eta_rep.eta:.6g} (intrinsic {eta_rep.intrinsic:.6g} "
          f"+ privacy {eta_rep.privacy_term:.6g})")
    for line in eta_notes(eta_rep):
        print(line)
    rows += [
        ("epsilon", "total", report.epsilon, "", ""),
        ("epsilon", "aggregate-tracker", report.eps_psi, "", ""),
        ("epsilon", "gradient-tracker", report.eps_y, "", ""),
        ("eta", "total", eta_rep.eta, "", ""),
        ("eta", "intrinsic", eta_rep.intrinsic, "", ""),
        ("eta", "privacy", eta_rep.privacy_term, "", ""),
    ]
    _write(path, csv_text(header, rows))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.points < 1:  # a check over no points would pass
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    cfg = _load_cfg(args.config)
    problem = build_problem(cfg)
    worst = 0.0
    for k in range(args.points):
        x, psi = random_interior_point(problem, seed=1000 + k)
        res = finite_diff_check(problem, x, psi)
        worst = max(worst, res.max_rel_error)
        print(f"point {k}: max relative error {res.max_rel_error:.3e}")
        if not res.max_rel_error < args.threshold:
            print(f"point {k}: over threshold at {res.worst}", file=sys.stderr)
    print(f"worst over {args.points} points: {worst:.3e} (threshold {args.threshold:g})")
    return EXIT_OK if worst < args.threshold else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dagopt",
        description="Noise-injected gradient-tracking simulator for distributed "
        "aggregative optimization with privacy and truthfulness accounting.",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="dump the fully resolved default configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run the experiment kind given in the config")
    p_run.add_argument("config")

    p_vg = sub.add_parser("validate-graph", help="check an edge-list topology and its weight matrix")
    p_vg.add_argument("edgelist")
    p_vg.add_argument("--edge-weight", type=float, default=0.12)

    p_pr = sub.add_parser("privacy-report", help="regime checks, budget and truthfulness decomposition")
    p_pr.add_argument("config")

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the configured problem")
    p_gc.add_argument("config")
    p_gc.add_argument("--points", type=int, default=20)
    p_gc.add_argument("--threshold", type=float, default=1e-5)

    args = parser.parse_args(argv)
    if args.print_config:
        print(config_to_text(default_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_FAIL
    np.seterr(over="ignore", invalid="ignore")  # divergence is detected, not trapped
    # SIGTERM unwinds like an exception, so that a run's worker pool is torn down
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        handler = {
            "run": _cmd_run,
            "validate-graph": _cmd_validate_graph,
            "privacy-report": _cmd_privacy_report,
            "gradcheck": _cmd_gradcheck,
        }[args.command]
        return handler(args)
    except DagoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
