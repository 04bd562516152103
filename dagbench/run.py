#!/usr/bin/env python3
"""dagopt benchmark: one workload per run, end to end or traced by layer.

    python3 dagbench/run.py --workload ev-m1000 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  With ``--trace 0`` the
run alternates set-up measurements (zero-round experiments) with whole
experiments plus ``emit_outputs`` for ``--seconds``, three experiments at
the least, and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced experiments and prints the per-layer
metrics.  Every experiment is checked, and its emitted files must be
byte-identical to the first one's.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
check passed, 1 when a check failed (the JSON line is still printed), 2
when the run could not start or was interrupted (no JSON line).

Everything runs in this one process with ``workers = 1``: no worker pool,
no child process.  BLAS threads are pinned before numpy is imported.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"  # single-threaded: steadier on a shared host, and the plain baseline
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 3  # medians of at least three; two emissions to compare
SETUP_MIN_S = 0.25  # set-up repeats per experiment; see Bench.time_setup

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("agent_rounds_per_s", "agent-rounds/s"), ("peak_rss_mb", "MiB"))

# (metric, unit, layer, field); the layers are named by tracer.install
PER_LAYER = (
    ("schedules.noise_vector.calls", "count", "schedules.noise_vector", "calls"),
    ("schedules.noise_vector.self_s", "s", "schedules.noise_vector", "self_s"),
    ("network.offdiag.calls", "count", "network.offdiag", "calls"),
    ("network.offdiag.self_s", "s", "network.offdiag", "self_s"),
    ("network.offdiag.bytes_computed", "bytes", "network.offdiag", "bytes"),
    ("network.build_weight_matrix.calls", "count", "network.build_weight_matrix", "calls"),
    ("network.build_weight_matrix.self_s", "s", "network.build_weight_matrix", "self_s"),
    ("problems.eval_project_all.calls", "count", "problems.eval_project_all", "calls"),
    ("problems.eval_project_all.self_s", "s", "problems.eval_project_all", "self_s"),
    ("problems.local_oracles.self_s", "s", "problems.local_oracles", "self_s"),
    ("problems.F_metrics.calls", "count", "problems.F_metrics", "calls"),
    ("problems.F_metrics.self_s", "s", "problems.F_metrics", "self_s"),
    ("problems.centralized_oracle.self_s", "s", "problems.centralized_oracle", "self_s"),
    ("problems.centralized_oracle.iterations", "count", "problems.centralized_oracle", "iterations"),
    ("engine.step.calls", "count", "engine.step", "calls"),
    ("engine.step.self_s", "s", "engine.step", "self_s"),
    ("engine.step_baseline.self_s", "s", "engine.step_baseline", "self_s"),
    ("engine.run.self_s", "s", "engine.run", "self_s"),
    ("privacy.epsilon.self_s", "s", "privacy.epsilon", "self_s"),
    ("harness.emit_outputs.self_s", "s", "harness.emit_outputs", "self_s"),
    ("harness.emit_outputs.bytes", "bytes", "harness.emit_outputs", "bytes"),
    ("harness.experiment.self_s", "s", "harness.experiment", "self_s"),
)


class Interrupted(Exception):
    pass


def _on_signal(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def import_dagopt():
    """Import the package from this checkout's ``src/``, never from an
    installed copy; raises ImportError when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "dagopt" / "__init__.py").is_file():
        raise ImportError(f"no dagopt sources under {src}")
    sys.path.insert(0, str(src))
    import dagopt
    import dagopt.engine
    import dagopt.harness
    import dagopt.network
    import dagopt.privacy
    import dagopt.problems

    if src.resolve() not in Path(dagopt.__file__).resolve().parents:
        raise ImportError(f"dagopt was imported from {dagopt.__file__}, not from {src}")
    return dagopt


def environment(dagopt) -> dict:
    import numpy as np
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "dagopt": dagopt.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "workers": 1,
    }


class Bench:
    """Runs one workload's experiments and checks their outputs."""

    def __init__(self, dagopt, workload: workloads.Workload, seed: int, out_dir: Path, rounds: int | None = None):
        self.dagopt = dagopt
        self.harness = dagopt.harness
        self.w = workload
        self.out_dir = out_dir
        self.cfg = self.harness.parse_config(workloads.config_text(workload, seed, rounds))
        self.setup_cfg = self.harness.parse_config(workloads.config_text(workload, seed, rounds=0))
        self.capture = workloads.Capture(dagopt.engine)
        self.first_files: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.issues: list[str] = []
        self.experiments = 0

    def close(self) -> None:
        self.capture.close()

    def time_setup(self) -> list[float]:
        """Wall times of the same experiment with zero integrator rounds,
        repeated for ``SETUP_MIN_S`` (at least once) so that a set-up of a
        few milliseconds still gets a steady median."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < SETUP_MIN_S:
            t0 = time.perf_counter()
            workloads.run_experiment(self.harness, self.setup_cfg)
            times.append(time.perf_counter() - t0)
            self.capture.take()
        return times

    def experiment(self, tracer=None) -> dict:
        """One experiment plus emit_outputs, then every check on it."""
        run_exp = workloads.run_experiment
        emit = self.harness.emit_outputs
        if tracer is not None:
            run_exp = tracer.span("harness.experiment", run_exp)
            emit = tracer.span("harness.emit_outputs", emit)
        out = self.out_dir / f"experiment{self.experiments}"
        self.experiments += 1
        t0 = time.perf_counter()
        summary = run_exp(self.harness, self.cfg)
        paths = emit(summary, str(out))
        t2 = time.perf_counter()

        ops = self.capture.take()
        issues = workloads.check_experiment(self.w.name, summary, ops)
        files = {Path(p).name: Path(p).read_bytes() for p in paths}
        if tracer is not None:
            tracer.layer("harness.emit_outputs").bytes += sum(len(b) for b in files.values())
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            differ = sorted(n for n in set(files) | set(self.first_files) if files.get(n) != self.first_files.get(n))
            issues.append(f"emissions of the same config differ in {differ}")
        shutil.rmtree(out, ignore_errors=True)

        failed = sum(op.failed for op in ops) if not issues else len(ops)
        self.attempted += len(ops)
        self.failed += failed
        self.issues += issues + [p for op in ops for p in op.problems]
        return {
            "wall_s": t2 - t0,
            "agent_rounds_per_s": self.cfg.m * sum(op.rounds for op in ops) / sum(op.seconds for op in ops),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Alternate a set-up measurement and a full experiment until
    ``seconds`` have passed, so that both see the same host load.

    Peak memory is read after the first experiment: a ``dagopt run``
    process runs one, and later repeats in the same process only add
    allocator noise (on ev-m1000 the glibc heap moved the high-water mark
    between 67 and 74 MiB from the second repeat on)."""
    setups, samples = [], []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        setups += bench.time_setup()
        samples.append(bench.experiment())
        if len(samples) == 1:
            rss_mb = peak_rss_mb()
        last = samples[-1]
        print(f"# sample {len(samples)}: setup_s={setups[-1]:.4f} wall_s={last['wall_s']:.4f} "
              f"agent_rounds_per_s={last['agent_rounds_per_s']:.1f} peak_rss_mb={peak_rss_mb():.2f}",
              file=sys.stderr, flush=True)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in samples),
        "agent_rounds_per_s": statistics.median(r["agent_rounds_per_s"] for r in samples),
        "peak_rss_mb": rss_mb,
    }


def measure_layers(bench: Bench, seconds: float) -> dict:
    from tracer import Tracer, install

    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(bench.experiment()["wall_s"])
        tracer = Tracer()
        install(tracer, bench.dagopt)
        try:
            wall = bench.experiment(tracer)["wall_s"]
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.stats))
    values = {}
    for metric, _, layer, fieldname in PER_LAYER:
        values[metric] = statistics.median(getattr(stats[layer], fieldname) for _, stats in traced)
    values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="integrator rounds instead of the workload's own (smoke tests only: "
                        "the figures are not comparable and the rate checks may not hold)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or (args.rounds is not None and args.rounds < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --rounds >= 1")

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _on_signal)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    bench = None
    try:
        dagopt = import_dagopt()
        import numpy as np

        np.seterr(over="ignore", invalid="ignore")  # as `dagopt run`: divergence is detected, not trapped
        print("# env " + json.dumps(environment(dagopt), sort_keys=True), flush=True)
        bench = Bench(dagopt, workloads.WORKLOADS[args.workload], args.seed, out_dir, args.rounds)
        if args.trace:
            values = measure_layers(bench, args.seconds)
            units = {metric: unit for metric, unit, _, _ in PER_LAYER}
            units["trace.overhead_s"] = "s"
        else:
            values = measure_end_to_end(bench, args.seconds)
            units = dict(END_TO_END)
    except (ImportError, Interrupted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still writes there, or it is already gone

    for issue in bench.issues:
        print(f"# check failed: {issue}", file=sys.stderr)
    correct = not bench.issues
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
