"""Command-line front-end.

Exit codes: 0 success, 2 assertion/validation failure, 3 divergence was
flagged where divergence is the expected outcome (robustness baseline).
The DAGOPT_OUTPUT_DIR environment variable overrides the configured output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .. import privacy
from ..errors import DagoptError
from ..network import build_weight_matrix, load_edgelist, validate_assumption2
from ..problems import finite_diff_check
from ..problems.gradcheck import random_interior_point
from .config import build_instance, build_problem, config_to_text, default_config, parse_config
from .experiments import (
    AdjacentScenario,
    emit_outputs,
    run_convergence_experiment,
    run_robustness_experiment,
    run_truthfulness_experiment,
)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_DIVERGED_EXPECTED = 3


def _load_cfg(path: str):
    cfg = parse_config(path)
    out = os.environ.get("DAGOPT_OUTPUT_DIR")
    if out:
        from dataclasses import replace

        cfg = replace(cfg, output_dir=out)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_cfg(args.config)
    if cfg.kind == "convergence":
        summary = run_convergence_experiment(cfg)
        emit_outputs(summary, cfg.output_dir)
        print(f"convergence: slope={summary.slope:.4f} on {summary.slope_metric}, "
              f"diverged_seeds={list(summary.diverged_seeds)}")
        return EXIT_FAIL if summary.diverged_seeds else EXIT_OK
    if cfg.kind == "robustness":
        summary = run_robustness_experiment(cfg)
        emit_outputs(summary, cfg.output_dir)
        nb, na = len(summary.seeds_baseline_flagged), len(summary.seeds_alg1_flagged)
        print(f"robustness: baseline flagged on {nb}/{len(cfg.seeds)} seeds, "
              f"noise-injected tracker flagged on {na}/{len(cfg.seeds)}")
        if na:
            return EXIT_FAIL
        return EXIT_DIVERGED_EXPECTED if nb else EXIT_OK
    if cfg.kind == "truthfulness":
        scenario = AdjacentScenario(
            agents=cfg.untruthful_agents,
            shift_fraction=cfg.shift_fraction,
            pivot_slot=cfg.pivot_slot,
        )
        summary = run_truthfulness_experiment(cfg, scenario)
        emit_outputs(summary, cfg.output_dir)
        print(f"truthfulness: median gain (noise-injected) = {summary.median_gain_alg1:.6g}, "
              f"median gain (conventional) = {summary.median_gain_naive:.6g}, eta = {summary.eta:.6g}")
        return EXIT_FAIL if summary.bound_violations else EXIT_OK
    print(f"config kind {cfg.kind!r} is not runnable via `run`; use the dedicated subcommand",
          file=sys.stderr)
    return EXIT_FAIL


def _cmd_validate_graph(args) -> int:
    topo = load_edgelist(args.edgelist)
    print(f"agents: {topo.m}, edges: {len(topo.edges)}, connected: {topo.is_connected()}")
    if not topo.is_connected():
        print("FAIL: graph is disconnected")
        return EXIT_FAIL
    W = build_weight_matrix(topo, args.edge_weight)
    cert = validate_assumption2(W)
    print(f"second-largest |eigenvalue| offset delta2 = {cert.delta2:.6g}")
    for v in cert.violations:
        print(f"violation: {v}")
    print("PASS" if cert.ok else "FAIL")
    return EXIT_OK if cert.ok else EXIT_FAIL


def _cmd_privacy_report(args) -> int:
    cfg = _load_cfg(args.config)
    problem, W, schedules = build_instance(cfg)
    lines = ["regime,condition,left,right,satisfied"]
    print("== regime conditions ==")
    all_regimes = privacy.REGIMES
    for regime in all_regimes:
        rc = privacy.check_regime(schedules, regime)
        mark = "PASS" if rc.passed else "fail"
        print(f"[{mark}] {regime}")
        for c in rc.checks:
            print(f"    {'ok ' if c.satisfied else 'NO '} {c.name}: {c.left:.4g} vs {c.right:.4g}")
            lines.append(f"{regime},{c.name},{c.left!r},{c.right!r},{c.satisfied}")
    try:
        report = privacy.epsilon(cfg.T, schedules, W)
    except DagoptError as exc:
        print(f"budget not certifiable: {exc}")
        return EXIT_FAIL
    c = problem.constants
    eta_rep = privacy.eta(report.epsilon, c.L_f1, c.L_f2, c.L_g, c.D_X, c.D_f)
    print(f"== budget over T={cfg.T} ==")
    print(f"epsilon = {report.epsilon:.6g} "
          f"(aggregate-tracker {report.eps_psi:.6g} + gradient-tracker {report.eps_y:.6g})")
    print(f"eta = {eta_rep.eta:.6g} (intrinsic {eta_rep.intrinsic:.6g} "
          f"+ privacy {eta_rep.privacy_term:.6g})")
    if eta_rep.linearization_exceeded:
        print("note: epsilon outside (0,1); the 2*epsilon linearization in eta is not tight")
    lines.append(f"epsilon,total,{report.epsilon!r},,")
    lines.append(f"epsilon,aggregate-tracker,{report.eps_psi!r},,")
    lines.append(f"epsilon,gradient-tracker,{report.eps_y!r},,")
    lines.append(f"eta,total,{eta_rep.eta!r},,")
    lines.append(f"eta,intrinsic,{eta_rep.intrinsic!r},,")
    lines.append(f"eta,privacy,{eta_rep.privacy_term!r},,")
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "privacy_report.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
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


def _cmd_lemma2(args) -> int:
    results = privacy.check_lemma2_bounds(args.draws, args.horizon, seed=args.seed)
    bad = [r for r in results if r.violated]
    worst = max(r.max_ratio for r in results)
    print(f"{len(results)} draws over horizon {args.horizon}: "
          f"{len(bad)} violations, worst ratio {worst:.6f}")
    for r in bad:
        print(f"violation: case ({r.case}) a0={r.a0} b0={r.b0} a={r.a} b={r.b} "
              f"phi0={r.phi0} ratio={r.max_ratio}")
    return EXIT_OK if not bad else EXIT_FAIL


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

    p_l2 = sub.add_parser("lemma2", help="random-draw suite for the recursion-taming bounds")
    p_l2.add_argument("draws", type=int)
    p_l2.add_argument("horizon", type=int)
    p_l2.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.print_config:
        print(config_to_text(default_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_FAIL
    np.seterr(over="ignore", invalid="ignore")  # divergence is detected, not trapped
    try:
        handler = {
            "run": _cmd_run,
            "validate-graph": _cmd_validate_graph,
            "privacy-report": _cmd_privacy_report,
            "gradcheck": _cmd_gradcheck,
            "lemma2": _cmd_lemma2,
        }[args.command]
        return handler(args)
    except DagoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
