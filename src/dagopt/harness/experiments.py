"""The three experiment families (convergence, noise-robustness,
truthfulness) plus deterministic output emission.

Each experiment splits its seeds into ``workers`` contiguous chunks.  A
chunk builds its problem, network and schedules once and runs its seeds on
them in order; several chunks run in separate processes, since problems hold
closures and do not pickle.  Per-seed results are folded in seed order, so
the outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from .. import engine, privacy
from ..engine import CSV_COLUMNS, MetricsRecord
from ..errors import DagoptError
from ..problems import F_value, centralized_oracle, desk_ev_spec, ev_problem
from ..problems.ev import EVChargingSpec
from .config import (
    ExperimentConfig,
    build_instance,
    build_network,
    build_problem,
    build_schedules,
    config_to_text,
    manifest_hash,
)
from .svgplot import Series, line_plot

_TINY = 1e-18


# ---------------------------------------------------------------------------
# seed-parallel plumbing
# ---------------------------------------------------------------------------


def _map_seeds(job, cfg: ExperimentConfig, *args) -> list:
    """Run ``job(cfg, seeds, *args)`` on contiguous chunks of ``cfg.seeds``,
    one chunk per worker (in-process for a single chunk), and return the
    per-seed results in seed order."""
    seeds = list(cfg.seeds)
    n = min(cfg.workers, len(seeds))
    if n <= 1:
        return job(cfg, seeds, *args)
    bounds = [len(seeds) * k // n for k in range(n + 1)]
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
        futures = [pool.submit(job, cfg, seeds[lo:hi], *args) for lo, hi in zip(bounds, bounds[1:])]
        return [res for fut in futures for res in fut.result()]


def _run(problem, W, schedules, cfg: ExperimentConfig, seed: int, T: int, stepper: str,
         noise_enabled: bool, **run_kwargs) -> engine.RunResult:
    """One integrator run of ``seed`` on a prebuilt instance."""
    state = engine.init_run(problem, W, schedules, seed, x0_policy=cfg.x0_policy, noise_enabled=noise_enabled)
    return engine.run(state, T, stepper=stepper, baseline_lambda=cfg.baseline_lambda, **run_kwargs)


def _convergence_job(cfg: ExperimentConfig, seeds: list[int], oracle):
    problem, W, schedules = build_instance(cfg)
    out = []
    for seed in seeds:
        res = _run(problem, W, schedules, cfg, seed, cfg.T, "alg1", cfg.noise_enabled,
                   stride=cfg.stride, oracle=oracle)
        out.append((seed, res.records, res.diverged_at, res.weighted_avg_gap, res.weighted_avg_grad))
    return out


def _robustness_job(cfg: ExperimentConfig, seeds: list[int], oracle):
    problem, W, schedules = build_instance(cfg)
    out = []
    for seed in seeds:
        alg1, base = (
            _run(problem, W, schedules, cfg, seed, cfg.T, stepper, cfg.noise_enabled,
                 stride=cfg.stride, oracle=oracle)
            for stepper in ("alg1", "baseline")
        )
        out.append((seed, alg1.records, alg1.diverged_at, base.records, base.diverged_at))
    return out


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceSummary:
    cfg: ExperimentConfig
    per_seed: dict[int, list[MetricsRecord]]
    mean_records: list[MetricsRecord]
    slope: float
    slope_metric: str  # which column the slope was fitted on
    final_errors: dict[int, float]
    weighted_avg_gap: float
    weighted_avg_grad: float
    diverged_seeds: tuple[int, ...]


def _mean_records(per_seed: dict[int, list[MetricsRecord]]) -> list[MetricsRecord]:
    seeds = sorted(per_seed)
    n_rows = min(len(per_seed[s]) for s in seeds)
    out = []
    for r in range(n_rows):
        rows = [per_seed[s][r] for s in seeds]
        vals = {
            c: float(np.mean([getattr(row, c) for row in rows])) for c in CSV_COLUMNS if c != "t"
        }
        out.append(MetricsRecord(t=rows[0].t, diverged=any(row.diverged for row in rows), **vals))
    return out


def fit_loglog_slope(records: list[MetricsRecord], metric: str, t_min: float, t_max: float) -> float:
    """Least-squares slope of log(metric) against log(t) over [t_min, t_max]."""
    ts, ys = [], []
    for rec in records:
        v = getattr(rec, metric)
        if rec.t >= max(t_min, 1) and rec.t <= t_max and math.isfinite(v) and v > 0:
            ts.append(math.log(rec.t))
            ys.append(math.log(v))
    if len(ts) < 2:
        return math.nan
    slope, _ = np.polyfit(np.array(ts), np.array(ys), 1)
    return float(slope)


def run_convergence_experiment(cfg: ExperimentConfig) -> ConvergenceSummary:
    """Per-seed runs, seed-averaged curve, and the log-log slope fitted on
    the last decade [T/10, T] of the averaged curve.  Convex problems are
    scored against the centralized solver; nonconvex ones on the squared
    gradient norm."""
    use_oracle = cfg.problem != "nonconvex"
    oracle = centralized_oracle(build_problem(cfg)) if use_oracle else None
    per_seed: dict[int, list[MetricsRecord]] = {}
    diverged = []
    wgaps, wgrads, finals = [], [], {}
    for seed, records, div_at, wgap, wgrad in _map_seeds(_convergence_job, cfg, oracle):
        per_seed[seed] = records
        if div_at is not None:
            diverged.append(seed)
        wgaps.append(wgap)
        wgrads.append(wgrad)
        finals[seed] = records[-1].err_x if use_oracle else records[-1].grad_norm_sq
    mean = _mean_records(per_seed)
    metric = "err_x" if use_oracle else "grad_norm_sq"
    slope = fit_loglog_slope(mean, metric, cfg.T / 10.0, cfg.T)
    return ConvergenceSummary(
        cfg=cfg,
        per_seed=per_seed,
        mean_records=mean,
        slope=slope,
        slope_metric=metric,
        final_errors=finals,
        weighted_avg_gap=float(np.mean(wgaps)),
        weighted_avg_grad=float(np.mean(wgrads)),
        diverged_seeds=tuple(diverged),
    )


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveVerdict:
    diverged: bool
    error_ratio: float  # error(t_end) / error(t_ref)
    flagged: bool  # diverged or ratio > threshold


@dataclass(frozen=True)
class RobustnessSummary:
    cfg: ExperimentConfig
    per_seed: dict[int, tuple[list[MetricsRecord], list[MetricsRecord]]]  # (alg1, baseline)
    verdicts: dict[int, tuple[CurveVerdict, CurveVerdict]]
    seeds_baseline_flagged: tuple[int, ...]
    seeds_alg1_flagged: tuple[int, ...]


def _error_at(records: list[MetricsRecord], t: int) -> float:
    best = None
    for rec in records:
        if best is None or abs(rec.t - t) < abs(best.t - t):
            best = rec
    return max(best.gap_F, _TINY) if best is not None else _TINY


def _verdict(records: list[MetricsRecord], diverged_at, t_ref: int, ratio_threshold: float) -> CurveVerdict:
    t_end = records[-1].t
    ratio = _error_at(records, t_end) / _error_at(records, t_ref)
    diverged = diverged_at is not None or any(r.diverged for r in records)
    return CurveVerdict(diverged=diverged, error_ratio=ratio, flagged=diverged or ratio > ratio_threshold)


def run_robustness_experiment(cfg: ExperimentConfig, t_ref: int = 10, ratio_threshold: float = 10.0) -> RobustnessSummary:
    """Same seeds and the same keyed noise streams feed both integrators;
    each curve gets a divergence verdict (hard divergence, or terminal error
    more than ``ratio_threshold`` times the early error)."""
    oracle = centralized_oracle(build_problem(cfg))
    per_seed, verdicts = {}, {}
    base_flagged, alg1_flagged = [], []
    for seed, a_recs, a_div, b_recs, b_div in _map_seeds(_robustness_job, cfg, oracle):
        per_seed[seed] = (a_recs, b_recs)
        va = _verdict(a_recs, a_div, t_ref, ratio_threshold)
        vb = _verdict(b_recs, b_div, t_ref, ratio_threshold)
        verdicts[seed] = (va, vb)
        if vb.flagged:
            base_flagged.append(seed)
        if va.flagged:
            alg1_flagged.append(seed)
    return RobustnessSummary(
        cfg=cfg,
        per_seed=per_seed,
        verdicts=verdicts,
        seeds_baseline_flagged=tuple(base_flagged),
        seeds_alg1_flagged=tuple(alg1_flagged),
    )


# ---------------------------------------------------------------------------
# truthfulness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjacentScenario:
    """A pair (P, P') of problem instances differing only in the demand
    entries of the listed agents, plus the shared randomness seed."""

    agents: tuple[int, ...]
    shift_fraction: float = 0.4
    pivot_slot: int = 3
    seed: int = 0

    def __post_init__(self):
        if not self.agents:
            raise ValueError("at least one perturbed agent required")
        if not (0.0 <= self.shift_fraction <= 1.0):
            raise ValueError("shift_fraction must be in [0, 1]")


def perturb_spec(spec: EVChargingSpec, scenario: AdjacentScenario) -> EVChargingSpec:
    """Move ``shift_fraction`` of each listed agent's pre-pivot demand mass
    uniformly onto the post-pivot slots, preserving its total demand; all
    other rows are untouched."""
    d = spec.d.copy()
    K = d.shape[1]
    p = scenario.pivot_slot
    if not (0 < p < K):
        raise ValueError("pivot slot must split the horizon")
    for i in scenario.agents:
        moved = scenario.shift_fraction * d[i, :p].sum()
        d[i, :p] *= 1.0 - scenario.shift_fraction
        d[i, p:] += moved / (K - p)
    return replace(spec, d=d)


def _liar_schedule(prices: np.ndarray, x_max: np.ndarray, energy: float, window: np.ndarray) -> np.ndarray:
    """Greedy cheapest-slot fill of ``energy`` within per-slot caps,
    restricted to ``window`` slots first, spilling over outside the window
    only if the caps inside cannot absorb the energy.  Deterministic
    tie-break by slot index."""
    K = prices.shape[0]
    sched = np.zeros(K)
    remaining = energy
    order = sorted(range(K), key=lambda k: (not window[k], prices[k], k))
    for k in order:
        if remaining <= 0:
            break
        take = min(x_max[k], remaining)
        sched[k] = take
        remaining -= take
    if remaining > 1e-9:
        raise DagoptError("liar schedule infeasible: caps cannot absorb the energy budget")
    return sched


def _truthfulness_job(cfg: ExperimentConfig, seeds: list[int], scenario: AdjacentScenario):
    true_spec = desk_ev_spec(cfg.m)
    true_problem = ev_problem(true_spec)
    psi_cap = true_problem.meta["psi_cap"]
    fake_problem = ev_problem(perturb_spec(true_spec, scenario), psi_cap=psi_cap)
    W = build_network(cfg)
    schedules = build_schedules(cfg, dim=true_problem.d)
    T = cfg.truthful_T
    p = scenario.pivot_slot
    K = true_spec.d.shape[1]
    window = np.zeros(K, dtype=bool)
    window[p:] = True

    def price_of(psi):
        r = np.clip(psi, 0.0, psi_cap)
        return true_spec.price_coeff * r**true_spec.price_exp

    def evaluate(final_state):
        # liars disregard their computed schedule and charge greedily in the
        # post-pivot window at the prices the run predicts
        prices_pred = price_of(final_state.psi.mean(axis=0))
        x_eval = final_state.x.copy()
        for i in scenario.agents:
            x_eval[i] = _liar_schedule(prices_pred, true_spec.x_max[i], true_spec.E[i], window)
        # realized prices come from actual schedules and TRUE demands
        phi_eval = true_problem.eval_g_all(x_eval).mean(axis=0)
        psi_eval = np.broadcast_to(phi_eval, (true_problem.m, true_problem.d))
        cost = sum(true_problem.eval_f_all(x_eval, psi_eval)[list(scenario.agents)])
        return float(cost), F_value(true_problem, x_eval)

    out = []
    for seed in seeds:
        gains = {}
        for stepper, noise_enabled in (("alg1", True), ("baseline", False)):
            (cost_p, F_p), (cost_q, F_q) = (
                evaluate(_run(problem, W, schedules, cfg, seed, T, stepper, noise_enabled,
                              stride=max(T, 1), track_weighted=False).final_state)
                for problem in (true_problem, fake_problem)
            )
            gains[stepper] = (cost_p - cost_q, F_q - F_p)
        gain_alg1, inflation = gains["alg1"]
        out.append((seed, gain_alg1, gains["baseline"][0], inflation))
    return out


@dataclass(frozen=True)
class TruthfulnessSummary:
    cfg: ExperimentConfig
    scenario: AdjacentScenario
    rows: list[tuple[int, float, float, float, float]]  # seed, gain_alg1, gain_naive, eta, inflation
    eta: float
    epsilon: float
    median_gain_alg1: float
    median_gain_naive: float
    bound_violations: tuple[int, ...]  # seeds where gain_alg1 > eta


def run_truthfulness_experiment(cfg: ExperimentConfig, scenario: AdjacentScenario) -> TruthfulnessSummary:
    """Four runs per seed — {true demand, perturbed demand} x {noise-injected
    run, noise-free conventional run} — each followed by a greedy
    cheapest-window recharge for the perturbed agents and a cost evaluation
    at the realized prices under the TRUE demands."""
    true_problem = ev_problem(desk_ev_spec(cfg.m))
    W = build_network(cfg)
    schedules = build_schedules(cfg, dim=true_problem.d)
    report = privacy.epsilon(cfg.truthful_T, schedules, W)
    c = true_problem.constants
    eta_rep = privacy.eta(report.epsilon, c.L_f1, c.L_f2, c.L_g, c.D_X, c.D_f)
    rows = []
    violations = []
    for seed, g_alg1, g_naive, inflation in _map_seeds(_truthfulness_job, cfg, scenario):
        rows.append((seed, g_alg1, g_naive, eta_rep.eta, inflation))
        if g_alg1 > eta_rep.eta:
            violations.append(seed)
    return TruthfulnessSummary(
        cfg=cfg,
        scenario=scenario,
        rows=rows,
        eta=eta_rep.eta,
        epsilon=report.epsilon,
        median_gain_alg1=float(np.median([r[1] for r in rows])),
        median_gain_naive=float(np.median([r[2] for r in rows])),
        bound_violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def _records_csv(records: list[MetricsRecord]) -> str:
    """Deterministic CSV serialization (shortest round-trip float repr).
    Non-finite values are written as they are: ``nan`` where a column has
    no value (err_x and gap_F without an oracle) or a run diverged."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join([str(rec.t)] + [repr(float(getattr(rec, c))) for c in CSV_COLUMNS[1:]]))
    div = [r.t for r in records if r.diverged]
    lines.append(f"# diverged_at,{div[0] if div else ''}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DagoptError(f"cannot write output file {path}: {exc}") from exc


def _manifest(cfg: ExperimentConfig, extra_lines: list[str]) -> str:
    body = config_to_text(cfg)
    lines = [
        "# run manifest",
        f"config_hash = {manifest_hash(cfg)}",
        *extra_lines,
        "",
        body,
    ]
    return "\n".join(lines)


def _curve_series(records: list[MetricsRecord], metric: str, label: str) -> Series:
    pts = [(r.t, getattr(r, metric)) for r in records if r.t > 0]
    return Series(label=label, xs=tuple(p[0] for p in pts), ys=tuple(p[1] for p in pts))


def emit_outputs(summary, out_dir: str) -> list[str]:
    """Write the experiment's CSV/SVG/manifest files; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        _write(path, text)
        paths.append(path)

    if isinstance(summary, ConvergenceSummary):
        emit("metrics.csv", _records_csv(summary.mean_records))
        svg = line_plot(
            [_curve_series(summary.mean_records, summary.slope_metric, summary.slope_metric)],
            title=f"seed-mean {summary.slope_metric}; slope {summary.slope:.3f} on [T/10, T]",
            xlabel="iteration", ylabel=summary.slope_metric, xlog=True, ylog=True,
        )
        emit("curve.svg", svg)
        emit("manifest.txt", _manifest(summary.cfg, [
            f"slope = {summary.slope!r}",
            f"slope_metric = {summary.slope_metric}",
            "slope_window = [T/10, T]  # last decade, skips transients",
            f"weighted_avg_gap = {summary.weighted_avg_gap!r}",
            f"weighted_avg_grad = {summary.weighted_avg_grad!r}",
            f"diverged_seeds = {list(summary.diverged_seeds)}",
        ]))
    elif isinstance(summary, RobustnessSummary):
        seed0 = sorted(summary.per_seed)[0]
        a_recs, b_recs = summary.per_seed[seed0]
        emit("metrics.csv", _records_csv(a_recs))
        emit("metrics_baseline.csv", _records_csv(b_recs))
        svg = line_plot(
            [_curve_series(a_recs, "gap_F", "noise-injected tracker"),
             _curve_series(b_recs, "gap_F", "conventional tracker")],
            title="objective gap under identical noise", xlabel="iteration",
            ylabel="F - F*", xlog=True, ylog=True,
        )
        emit("curve.svg", svg)
        verdict_lines = [
            f"seed{s}_alg1_flagged = {summary.verdicts[s][0].flagged}  "
            f"(ratio {summary.verdicts[s][0].error_ratio:.3g}), "
            f"baseline_flagged = {summary.verdicts[s][1].flagged} "
            f"(ratio {summary.verdicts[s][1].error_ratio:.3g})"
            for s in sorted(summary.verdicts)
        ]
        emit("manifest.txt", _manifest(summary.cfg, verdict_lines))
    elif isinstance(summary, TruthfulnessSummary):
        lines = ["seed,gain_alg1,gain_naive,eta,global_inflation"]
        for seed, g1, g2, eta_v, infl in summary.rows:
            lines.append(f"{seed},{g1!r},{g2!r},{eta_v!r},{infl!r}")
        emit("gains.csv", "\n".join(lines) + "\n")
        emit("manifest.txt", _manifest(summary.cfg, [
            f"epsilon = {summary.epsilon!r}",
            f"eta = {summary.eta!r}",
            f"median_gain_alg1 = {summary.median_gain_alg1!r}",
            f"median_gain_naive = {summary.median_gain_naive!r}",
            f"perturbed_agents = {list(summary.scenario.agents)}",
            f"shift_fraction = {summary.scenario.shift_fraction!r}",
            f"pivot_slot = {summary.scenario.pivot_slot}",
            f"bound_violations = {list(summary.bound_violations)}",
        ]))
    else:
        raise TypeError(f"unknown summary type {type(summary).__name__}")
    return paths


def input_data_hash() -> str:
    """Content hash of the bundled EV data files (manifest provenance)."""
    from importlib import resources

    h = hashlib.sha256()
    for name in ("ev_models.csv", "demand_profile.csv"):
        h.update(resources.files("dagopt.data").joinpath(name).read_bytes())
    return h.hexdigest()
