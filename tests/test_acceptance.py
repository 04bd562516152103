"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantity so the
suite output doubles as a scorecard.  Tolerances are stated inline; nothing
here is tuned to the implementation — expected values come from independent
oracles (centralized solver, finite differences, a frozen 256-bit series
summation) or are exact identities of the update equations.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest
from test_privacy import check_lemma2_bounds

from dagopt import engine, privacy
from dagopt.harness import (
    AdjacentScenario,
    emit_outputs,
    run_convergence_experiment,
    run_robustness_experiment,
    run_truthfulness_experiment,
)
from dagopt.harness.config import apply_preset, build_network, build_problem, build_schedules, default_config
from dagopt.problems.gradcheck import finite_diff_check, random_interior_point
from dagopt.problems.synthetic import synthetic_problem
from dagopt.problems.ev import desk_ev_spec, ev_problem


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def _desk_cfg(**overrides):
    cfg = default_config()
    preset = overrides.pop("preset", "")
    if preset:
        cfg = apply_preset(cfg, preset)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# 1. exact conservation identities of the noise-free update
# ---------------------------------------------------------------------------


def test_criterion_01_noise_free_invariants():
    """Column sums of the aggregate tracker equal column sums of g(x_t), and
    the tracker mean advances by exactly gamma_{t,1} * mean grad2_f, at every
    one of 10^4 noise-free iterations on the 20-agent charging instance."""
    cfg = _desk_cfg()
    prob = build_problem(cfg)
    W = build_network(cfg)
    sch = build_schedules(cfg)
    st = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
    T = 10_000
    worst_psi = 0.0
    worst_y = 0.0
    t0 = time.perf_counter()
    for t in range(T):
        psi_gap = np.abs(st.psi.sum(axis=0) - prob.eval_g_all(st.x).sum(axis=0)).max()
        worst_psi = max(worst_psi, float(psi_gap))
        grad2_mean = prob.eval_grad2_all(st.x, st.psi).mean(axis=0)
        gamma1_t = sch.gamma1.value(t)
        ybar_prev = st.y.mean(axis=0)
        engine.step(st)
        y_gap = np.linalg.norm(st.y.mean(axis=0) - ybar_prev - gamma1_t * grad2_mean)
        worst_y = max(worst_y, float(y_gap))
    elapsed = time.perf_counter() - t0
    ok = worst_psi <= 1e-8 and worst_y <= 1e-9 and elapsed < 30.0
    _report(1, ok, f"max|1'psi - 1'g| = {worst_psi:.3e} (<=1e-8), "
                   f"max tracker-mean drift = {worst_y:.3e} (<=1e-9), {elapsed:.1f}s (<30s)")
    assert worst_psi <= 1e-8
    assert worst_y <= 1e-9
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. tracker containment inside the shrinking projection ball
# ---------------------------------------------------------------------------


def test_criterion_02_tracker_ball_containment():
    """With the truthful-regime noise enabled, every agent's tracker stays
    inside the projection ball for all t <= 10^3 on all 5 seeds."""
    cfg = _desk_cfg(preset="sec5-truthful")
    prob = build_problem(cfg)
    W = build_network(cfg)
    sch = build_schedules(cfg)
    worst = -math.inf

    def excess(st):
        return float(np.linalg.norm(st.y, axis=1).max() - (1.0 + st.gamma1_sum) * prob.constants.L_f2)

    for seed in cfg.seeds:
        st = engine.init_run(prob, W, sch, seed=seed, noise_enabled=True)
        for _ in range(1000):
            worst = max(worst, excess(st))
            engine.step(st)
        worst = max(worst, excess(st))
    ok = worst <= 1e-9
    _report(2, ok, f"max over seeds/t of ||y_t^i|| - ball_radius(t) = {worst:.3e} (<=1e-9)")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 3. noise-free convergence to the centralized optimum
# ---------------------------------------------------------------------------


def test_criterion_03_oracle_convergence_noise_free():
    cfg = _desk_cfg(preset="corollary1-sc", problem="strongly-convex", m=10,
                    T=50_000, stride=5_000, seeds=(0,), noise_enabled=False)
    t0 = time.perf_counter()
    summary = run_convergence_experiment(cfg)
    elapsed = time.perf_counter() - t0
    err = summary.mean_records[-1].err_x  # the mean over one seed is that seed's error
    ok = err <= 1e-6 and elapsed < 60.0
    _report(3, ok, f"||x_T - x*||^2 = {err:.3e} (<=1e-6) at T=5e4, {elapsed:.1f}s (<60s)")
    assert err <= 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. noisy convergence rate (log-log slope of the seed-mean error)
# ---------------------------------------------------------------------------


def test_criterion_04_noisy_rate_slope():
    cfg = _desk_cfg(preset="corollary1-sc", problem="strongly-convex", m=10,
                    T=100_000, stride=100, workers=5)
    t0 = time.perf_counter()
    summary = run_convergence_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = summary.slope <= -1.0 and not summary.diverged_seeds and elapsed < 600.0
    _report(4, ok, f"seed-mean log-log slope on [T/10, T] = {summary.slope:.3f} (<=-1.0), "
                   f"{elapsed:.1f}s (<600s)")
    assert summary.slope <= -1.0
    assert not summary.diverged_seeds
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. gradient correctness against finite differences
# ---------------------------------------------------------------------------


def test_criterion_05_gradient_correctness():
    problems = {"ev": ev_problem(desk_ev_spec(20))}
    for kind in ("strongly-convex", "convex", "nonconvex"):
        problems[kind] = synthetic_problem(kind, m=6, n_i=4, d=4, seed=0)
    worst = 0.0
    for name, prob in problems.items():
        for k in range(20):
            x, psi = random_interior_point(prob, seed=1000 + k)
            res = finite_diff_check(prob, x, psi)
            worst = max(worst, res.max_rel_error)
    ok = worst < 1e-5
    _report(5, ok, f"max relative error over 4 problems x 20 points = {worst:.3e} (<1e-5)")
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# 6. robustness: conventional tracking corrupted by the noise, ours not
# ---------------------------------------------------------------------------


def test_criterion_06_robustness_vs_conventional_tracking():
    cfg = _desk_cfg(preset="sec5-truthful", T=1000, stride=10)
    summary = run_robustness_experiment(cfg)
    n_base = sum(vb.flagged for _, vb in summary.verdicts.values())
    n_alg1 = sum(va.flagged for va, _ in summary.verdicts.values())
    ratios = [summary.verdicts[s][1].error_ratio for s in sorted(summary.verdicts)]
    ok = n_base >= 4 and n_alg1 == 0
    _report(6, ok, f"baseline flagged on {n_base}/5 seeds (>=4 required; "
                   f"ratios {', '.join(f'{r:.1f}' for r in ratios)}), "
                   f"noise-injected run flagged on {n_alg1}/5 (0 required)")
    assert n_base >= 4
    assert n_alg1 == 0


# ---------------------------------------------------------------------------
# 7. privacy accounting: budget series, calibration, finite-horizon tail
# ---------------------------------------------------------------------------

# Frozen output of an independent 256-bit (78 decimal digit) summation of the
# two budget series at T=10^4 with the truthful-regime schedules and the
# 20-agent 4-regular network (smallest |w_ii| = 0.48), computed with mpmath:
#   eps = sum sqrt(2) c1 lam0 / (sig_xi g1 g2 (t+1)^1.3)
#       + sum sqrt(2) c2 g1 / (sig_zeta (t+1)^1.01),  t = 1..10^4
_GOLDEN_EPS_1E4 = 465.2888260938502132366960


def test_criterion_07_privacy_budget_accounting():
    cfg = _desk_cfg(preset="sec5-truthful")
    W = build_network(cfg)
    sch = build_schedules(cfg)
    rep4 = privacy.epsilon(10_000, sch, W)
    rel = abs(rep4.epsilon - _GOLDEN_EPS_1E4) / _GOLDEN_EPS_1E4

    sx, sz = privacy.calibrate_noise(1.0, 10_000, sch, W)
    sch_cal = build_schedules(dataclasses.replace(cfg, sigma_xi=sx, sigma_zeta=sz))
    round_trip = privacy.epsilon(10_000, sch_cal, W).epsilon
    rel_cal = abs(round_trip - 1.0)

    rep6 = privacy.epsilon(1_000_000, sch, W)
    tail_frac = (rep6.epsilon - rep4.epsilon) / rep4.epsilon

    ok = rel < 1e-9 and rel_cal < 1e-9 and tail_frac < 0.01
    _report(7, ok, f"eps(1e4) rel err vs 256-bit sum = {rel:.2e} (<1e-9), "
                   f"calibration round-trip rel err = {rel_cal:.2e} (<1e-9), "
                   f"tail (eps(1e6)-eps(1e4))/eps(1e4) = {tail_frac:.4f} (<0.01)")
    assert rel < 1e-9
    assert rel_cal < 1e-9
    # The tail clause is not satisfiable with these exponents: the tracker
    # series decays as (t+1)^{-1.01}, so 48.6% of eps(1e4) still accrues
    # between T=1e4 and T=1e6.  The assertion is kept at its stated value.
    assert tail_frac < 0.01


# ---------------------------------------------------------------------------
# 8. truthfulness: misreporting gains bounded by eta and by the noise
# ---------------------------------------------------------------------------


def test_criterion_08_truthfulness_gain_bound():
    cfg = _desk_cfg(preset="sec5-truthful", workers=5)
    scenario = AdjacentScenario(agents=cfg.untruthful_agents,
                                shift_fraction=cfg.shift_fraction,
                                pivot_slot=cfg.pivot_slot)
    summary = run_truthfulness_experiment(cfg, scenario)
    ok = (summary.median_gain_alg1 < summary.median_gain_naive
          and not summary.bound_violations)
    _report(8, ok, f"median gain: noise-injected {summary.median_gain_alg1:.4f} < "
                   f"noise-free conventional {summary.median_gain_naive:.4f}; "
                   f"per-seed gains <= eta = {summary.eta:.4g} "
                   f"(violations: {list(summary.bound_violations)})")
    assert summary.median_gain_alg1 < summary.median_gain_naive
    assert not summary.bound_violations


# ---------------------------------------------------------------------------
# 9. recursion-taming bounds hold on random admissible draws
# ---------------------------------------------------------------------------


def test_criterion_09_sequence_bound_property_suite():
    results = check_lemma2_bounds(200, 10_000, seed=0)
    bad = [r for r in results if r.violated]
    worst = max(r.max_ratio for r in results)
    ok = not bad
    _report(9, ok, f"200 draws, horizon 1e4: {len(bad)} violations, "
                   f"worst iterate/bound ratio = {worst:.6f}")
    assert not bad


# ---------------------------------------------------------------------------
# 10. bit-for-bit determinism of emitted outputs
# ---------------------------------------------------------------------------


def test_criterion_10_deterministic_outputs(tmp_path):
    cfg = _desk_cfg(problem="strongly-convex", m=8, T=400, stride=50,
                    seeds=(0, 1, 2, 3), workers=1)
    dirs = {}
    for name, workers in (("a", 1), ("b", 1), ("par", 4)):
        c = dataclasses.replace(cfg, workers=workers)
        emit_outputs(run_convergence_experiment(c), str(tmp_path / name))
        dirs[name] = tmp_path / name

    same_repeat = all(
        filecmp.cmp(dirs["a"] / f, dirs["b"] / f, shallow=False)
        for f in ("metrics.csv", "curve.svg", "manifest.txt")
    )
    # the manifest embeds the worker count (a config field), so only the
    # data artifacts are required to match across worker counts
    same_parallel = all(
        filecmp.cmp(dirs["a"] / f, dirs["par"] / f, shallow=False)
        for f in ("metrics.csv", "curve.svg")
    )
    ok = same_repeat and same_parallel
    _report(10, ok, f"repeat run byte-identical: {same_repeat}; "
                    f"1-vs-4 workers byte-identical data: {same_parallel}")
    assert same_repeat
    assert same_parallel
