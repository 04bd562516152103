"""The three experiment families (convergence, noise-robustness,
truthfulness) plus deterministic output emission.

Each experiment builds its problem, network and schedules (truthfulness
also its perturbed problem) once and hands its list of integrator runs to
one executor, which runs equal runs once (so the truthfulness noise-free
pair runs once per distinct x0) and splits the distinct runs into
``workers`` contiguous chunks; problems pickle, so a chunk in another
process gets a copy.  Results are folded in seed order, so the outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .. import engine, privacy
from ..engine import CSV_COLUMNS, MetricsRecord
from ..errors import DagoptError
from ..problems import centralized_oracle, ev_problem
from ..problems.ev import EVChargingSpec
from ..problems.oracle import OracleSolution
from .config import ExperimentConfig, build_instance, config_to_text, manifest_hash
from .svgplot import Series, line_plot

_TINY = 1e-18
# a robustness curve is flagged when its terminal error exceeds RATIO_THRESHOLD
# times its error at T_REF
T_REF = 10
RATIO_THRESHOLD = 10.0


# ---------------------------------------------------------------------------
# the run executor
# ---------------------------------------------------------------------------


def _execute(cfg: ExperimentConfig, instances, runs: list, T: int, finish, **run_kwargs) -> list:
    """``finish(result)`` for each run of ``runs``, in list order, running
    each distinct run once.  A run is the tuple (index into ``instances``,
    stepper, noise on, seed); T and ``run_kwargs`` hold for every run.  The
    distinct runs are split into contiguous chunks, one per worker (in-process
    for a single chunk, otherwise pickled to a spawned worker).  An exception
    or ``SystemExit`` while the chunks run, such as the one the CLI raises on
    SIGTERM, terminates the workers before it propagates."""
    distinct = list(dict.fromkeys(runs))
    n = min(cfg.workers, len(distinct))
    if n <= 1:
        results = _run_chunk(cfg, instances, distinct, T, finish, run_kwargs)
    else:
        bounds = [len(distinct) * k // n for k in range(n + 1)]
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
            try:
                futures = [pool.submit(_run_chunk, cfg, instances, distinct[lo:hi], T, finish, run_kwargs)
                           for lo, hi in zip(bounds, bounds[1:])]
                results = [res for fut in futures for res in fut.result()]
            except BaseException:
                # leaving the block waits for running chunks; the executor has no
                # public way to stop them before Python 3.14's terminate_workers
                for proc in list(pool._processes.values()):
                    proc.terminate()
                raise
    done = dict(zip(distinct, results))
    return [done[run] for run in runs]


def _run_chunk(cfg: ExperimentConfig, instances, runs: list, T: int, finish, run_kwargs: dict) -> list:
    return [finish(engine.run(engine.init_run(*instances[k], seed, x0_policy=cfg.x0_policy, noise_enabled=noisy),
                              T, stepper=stepper, baseline_lambda=cfg.baseline_lambda, **run_kwargs))
            for k, stepper, noisy, seed in runs]


def _drop_state(result: engine.RunResult) -> engine.RunResult:
    # a copy without the final state, so that a chunk in another process
    # sends back only records and scalars; engine.run's own result is kept
    return replace(result, final_state=None)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceSummary:
    cfg: ExperimentConfig
    mean_records: list[MetricsRecord]
    slope: float
    slope_metric: str  # which column the slope was fitted on
    final_errors: dict[int, float]
    weighted_avg_gap: float
    weighted_avg_grad: float
    diverged_seeds: tuple[int, ...]
    oracle: OracleSolution | None  # None for a nonconvex problem


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
    instance = build_instance(cfg)
    oracle = centralized_oracle(instance[0]) if use_oracle else None
    per_seed: dict[int, list[MetricsRecord]] = {}
    diverged = []
    wgaps, wgrads, finals = [], [], {}
    runs = [(0, "alg1", cfg.noise_enabled, seed) for seed in cfg.seeds]
    results = _execute(cfg, (instance,), runs, cfg.T, _drop_state, stride=cfg.stride, oracle=oracle)
    for seed, run in zip(cfg.seeds, results):
        per_seed[seed] = run.records
        if run.diverged_at is not None:
            diverged.append(seed)
        wgaps.append(run.weighted_avg_gap)
        wgrads.append(run.weighted_avg_grad)
        finals[seed] = run.records[-1].err_x if use_oracle else run.records[-1].grad_norm_sq
    mean = _mean_records(per_seed)
    metric = "err_x" if use_oracle else "grad_norm_sq"
    slope = fit_loglog_slope(mean, metric, cfg.T / 10.0, cfg.T)
    return ConvergenceSummary(
        cfg=cfg,
        mean_records=mean,
        slope=slope,
        slope_metric=metric,
        final_errors=finals,
        weighted_avg_gap=float(np.mean(wgaps)),
        weighted_avg_grad=float(np.mean(wgrads)),
        diverged_seeds=tuple(diverged),
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveVerdict:
    error_ratio: float  # error(t_end) / error(T_REF)
    flagged: bool  # diverged or ratio > threshold


@dataclass(frozen=True)
class RobustnessSummary:
    cfg: ExperimentConfig
    per_seed: dict[int, tuple[list[MetricsRecord], list[MetricsRecord]]]  # (alg1, baseline)
    verdicts: dict[int, tuple[CurveVerdict, CurveVerdict]]
    seeds_baseline_flagged: tuple[int, ...]
    seeds_alg1_flagged: tuple[int, ...]
    oracle: OracleSolution


def _error_at(records: list[MetricsRecord], t: int) -> float:
    best = None
    for rec in records:
        if best is None or abs(rec.t - t) < abs(best.t - t):
            best = rec
    return max(best.gap_F, _TINY) if best is not None else _TINY


def _verdict(records: list[MetricsRecord], diverged_at) -> CurveVerdict:
    t_end = records[-1].t
    ratio = _error_at(records, t_end) / _error_at(records, T_REF)
    diverged = diverged_at is not None or any(r.diverged for r in records)
    return CurveVerdict(error_ratio=ratio, flagged=diverged or ratio > RATIO_THRESHOLD)


def run_robustness_experiment(cfg: ExperimentConfig) -> RobustnessSummary:
    """Both integrators run each seed under the same noise: each draws one
    zeta and one xi block per round from the streams keyed by the seed.
    Each curve gets a divergence verdict (hard divergence, or terminal error
    more than RATIO_THRESHOLD times the error at T_REF)."""
    instance = build_instance(cfg)
    oracle = centralized_oracle(instance[0])
    per_seed, verdicts = {}, {}
    base_flagged, alg1_flagged = [], []
    runs = [(0, stepper, cfg.noise_enabled, seed) for seed in cfg.seeds for stepper in ("alg1", "baseline")]
    results = _execute(cfg, (instance,), runs, cfg.T, _drop_state, stride=cfg.stride, oracle=oracle)
    for seed, a_run, b_run in zip(cfg.seeds, results[0::2], results[1::2]):
        per_seed[seed] = (a_run.records, b_run.records)
        va = _verdict(a_run.records, a_run.diverged_at)
        vb = _verdict(b_run.records, b_run.diverged_at)
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
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# truthfulness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjacentScenario:
    """A pair (P, P') of problem instances differing only in the demand
    entries of the listed agents."""

    agents: tuple[int, ...]
    shift_fraction: float
    pivot_slot: int

    def __post_init__(self):
        if not self.agents or len(set(self.agents)) != len(self.agents) or min(self.agents) < 0:
            raise ValueError(f"perturbed agents must be distinct non-negative indices, got {list(self.agents)}")
        if not (0.0 <= self.shift_fraction <= 1.0):
            raise ValueError("shift_fraction must be in [0, 1]")


def perturb_spec(spec: EVChargingSpec, scenario: AdjacentScenario) -> EVChargingSpec:
    """Move ``shift_fraction`` of each listed agent's pre-pivot demand mass
    uniformly onto the post-pivot slots, preserving its total demand; all
    other rows are untouched."""
    d = spec.d.copy()
    m, K = d.shape
    p = scenario.pivot_slot
    if not (0 < p < K):
        raise ValueError("pivot slot must split the horizon")
    if max(scenario.agents) >= m:
        raise ValueError(f"perturbed agent {max(scenario.agents)} is out of range for m={m} agents")
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


def _outcome(true_problem, scenario: AdjacentScenario, result: engine.RunResult) -> tuple[float, float]:
    """(the liars' cost, F) after a run: liars charge greedily in the
    post-pivot window at the prices the run predicts, on the psi box, and
    pay the prices the realized schedules and the TRUE demands give."""
    spec = true_problem.meta["spec"]
    final_state = result.final_state
    prices_pred = spec.price(np.minimum(final_state.psi.mean(axis=0), spec.psi_cap))
    window = np.arange(spec.d.shape[1]) >= scenario.pivot_slot
    x_eval = final_state.x.copy()
    for i in scenario.agents:
        x_eval[i] = _liar_schedule(prices_pred, spec.x_max[i], spec.E[i], window)
    phi_eval = true_problem.eval_g_all(x_eval).mean(axis=0)
    f_eval = true_problem.eval_f_all(x_eval, phi_eval[None, :])
    return float(sum(f_eval[list(scenario.agents)])), float(f_eval.sum())


@dataclass(frozen=True)
class TruthfulnessSummary:
    cfg: ExperimentConfig
    scenario: AdjacentScenario
    rows: list[tuple[int, float, float, float, float]]  # seed, gain_alg1, gain_naive, eta, inflation
    eta_report: privacy.EtaReport
    epsilon: float
    median_gain_alg1: float
    median_gain_naive: float
    bound_violations: tuple[int, ...]  # seeds where gain_alg1 > eta

    @property
    def eta(self) -> float:
        return self.eta_report.eta


def run_truthfulness_experiment(cfg: ExperimentConfig, scenario: AdjacentScenario) -> TruthfulnessSummary:
    """A noise-injected pair of runs per seed, on the true and the perturbed
    demand, and a noise-free conventional pair per distinct x0: one under
    project-zero, one per seed under random-feasible.  A seed's gains are
    the liars' cost saving and the inflation of F from misreporting, each
    from the runs' ``_outcome``."""
    true_problem, W, schedules = instance = build_instance(cfg)
    fake_problem = ev_problem(perturb_spec(true_problem.meta["spec"], scenario))
    report = privacy.epsilon(cfg.truthful_T, schedules, W)
    c = true_problem.constants
    eta_rep = privacy.eta(report.epsilon, c.L_f1, c.L_f2, c.L_g, c.D_X, c.D_f)
    rows = []
    violations = []
    # a noise-free run reads its seed only through a random-feasible x0, so
    # under project-zero every seed's noise-free pair is the first seed's
    runs = []
    for seed in cfg.seeds:
        naive_seed = seed if cfg.x0_policy == "random-feasible" else cfg.seeds[0]
        runs += [(k, "alg1", True, seed) for k in (0, 1)] + [(k, "baseline", False, naive_seed) for k in (0, 1)]
    T = cfg.truthful_T
    outcomes = _execute(cfg, (instance, (fake_problem, W, schedules)), runs, T,
                        partial(_outcome, true_problem, scenario), stride=max(T, 1), track_weighted=False)
    for k, seed in enumerate(cfg.seeds):
        (cost_p, F_p), (cost_q, F_q), (naive_p, _), (naive_q, _) = outcomes[4 * k:4 * k + 4]
        g_alg1 = cost_p - cost_q
        rows.append((seed, g_alg1, naive_p - naive_q, eta_rep.eta, F_q - F_p))
        if g_alg1 > eta_rep.eta:
            violations.append(seed)
    return TruthfulnessSummary(
        cfg=cfg,
        scenario=scenario,
        rows=rows,
        eta_report=eta_rep,
        epsilon=report.epsilon,
        median_gain_alg1=float(np.median([r[1] for r in rows])),
        median_gain_naive=float(np.median([r[2] for r in rows])),
        bound_violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def csv_text(header, rows) -> str:
    """Deterministic CSV text: one line per row, each float in its shortest
    round-trip repr, and a field holding a comma or a quote quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _records_csv(records: list[MetricsRecord]) -> str:
    """The records as CSV plus a ``# diverged_at`` trailer.  Non-finite
    values are written as they are: ``nan`` where a column has no value
    (err_x and gap_F without an oracle) or a run diverged."""
    div = [r.t for r in records if r.diverged]
    rows = ([getattr(rec, c) for c in CSV_COLUMNS] for rec in records)
    return csv_text(CSV_COLUMNS, rows) + f"# diverged_at,{div[0] if div else ''}\n"


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory; OS errors become DagoptError."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DagoptError(f"cannot write output file {path}: {exc}") from exc


def _manifest(cfg: ExperimentConfig, extra_lines: list[str]) -> str:
    body = config_to_text(cfg)
    lines = ["# run manifest", f"config_hash = {manifest_hash(cfg)}"]
    if cfg.problem == "ev":  # the only problem built from the bundled data files
        lines.append(f"input_data_hash = {input_data_hash()}")
    lines += [*_provenance_lines(), *extra_lines, "", body]
    return "\n".join(lines)


def _provenance_lines() -> list[str]:
    """The package and library versions a run's bits depend on.  Noise draws
    go through numpy's ``log``, whose SIMD kernel numpy picks per host
    (AVX-512 against AVX2 may differ at the ulp level), so that choice is
    recorded too."""
    import scipy

    from .. import __version__

    try:
        log_target = np.lib.introspect.opt_func_info(func_name="^log$", signature="float64")["log"]["dd"]["current"]
    except (AttributeError, KeyError):  # numpy < 2.1 has no dispatch introspection
        log_target = "unknown"
    return [
        f"dagopt_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"scipy_version = {scipy.__version__}",
        f"numpy_log_target = {log_target}",
    ]


def _oracle_lines(oracle: OracleSolution | None) -> list[str]:
    """The centralized oracle's stopping state: err_x and gap_F are measured
    against its x* and F*, which mean what they say only if it converged."""
    if oracle is None:
        return []
    return [
        f"oracle_iterations = {oracle.iterations}",
        f"oracle_pg_norm = {oracle.pg_norm!r}",
        f"oracle_converged = {oracle.converged}",
    ]


def _curve_series(records: list[MetricsRecord], metric: str, label: str) -> Series:
    pts = [(r.t, getattr(r, metric)) for r in records if r.t > 0]
    return Series(label=label, xs=tuple(p[0] for p in pts), ys=tuple(p[1] for p in pts))


def emit_outputs(summary, out_dir: str) -> list[str]:
    """Write the experiment's CSV/SVG/manifest files; returns paths."""
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
            xlabel="iteration", ylabel=summary.slope_metric,
        )
        emit("curve.svg", svg)
        emit("manifest.txt", _manifest(summary.cfg, [
            f"slope = {summary.slope!r}",
            f"slope_metric = {summary.slope_metric}",
            "slope_window = [T/10, T]  # last decade, skips transients",
            f"weighted_avg_gap = {summary.weighted_avg_gap!r}",
            f"weighted_avg_grad = {summary.weighted_avg_grad!r}",
            f"diverged_seeds = {list(summary.diverged_seeds)}",
            *_oracle_lines(summary.oracle),
        ]))
    elif isinstance(summary, RobustnessSummary):
        seed0 = sorted(summary.per_seed)[0]
        a_recs, b_recs = summary.per_seed[seed0]
        emit("metrics.csv", _records_csv(a_recs))
        emit("metrics_baseline.csv", _records_csv(b_recs))
        svg = line_plot(
            [_curve_series(a_recs, "gap_F", "noise-injected tracker"),
             _curve_series(b_recs, "gap_F", "conventional tracker")],
            title="objective gap under identical noise", xlabel="iteration", ylabel="F - F*",
        )
        emit("curve.svg", svg)
        verdict_lines = [
            f"seed{s}_alg1_flagged = {summary.verdicts[s][0].flagged}  "
            f"(ratio {summary.verdicts[s][0].error_ratio:.3g}), "
            f"baseline_flagged = {summary.verdicts[s][1].flagged} "
            f"(ratio {summary.verdicts[s][1].error_ratio:.3g})"
            for s in sorted(summary.verdicts)
        ]
        emit("manifest.txt", _manifest(summary.cfg, [*verdict_lines, *_oracle_lines(summary.oracle)]))
    elif isinstance(summary, TruthfulnessSummary):
        valid = not summary.eta_report.linearization_exceeded
        header = ("seed", "gain_alg1", "gain_naive", "eta", "global_inflation", "eta_linearization_valid")
        emit("gains.csv", csv_text(header, [(*row, valid) for row in summary.rows]))
        emit("manifest.txt", _manifest(summary.cfg, [
            f"epsilon = {summary.epsilon!r}",
            f"eta = {summary.eta!r}",
            f"eta_intrinsic = {summary.eta_report.intrinsic!r}",
            f"eta_privacy_term = {summary.eta_report.privacy_term!r}",
            f"eta_linearization_valid = {valid}",
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
