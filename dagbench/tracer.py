"""Per-layer tracing from outside the program.

The tracer replaces public functions of the dagopt modules with wrappers
*where the caller looks them up*, times each call and charges it to a
named layer.  The engine imports ``noise_vector``, ``F_value`` and
``F_grad`` into its own namespace; the harness imports
``centralized_oracle`` and ``build_weight_matrix`` into its own.  A layer's self time is its span time
minus the time of the wrapped spans nested inside it.

Spans are folded into per-layer totals as they close instead of being
stored one by one: the strongly-convex workload opens a few hundred
thousand spans per experiment, and keeping them all would distort the
memory the benchmark measures.  Nothing is timed inside ``src/``; ``uninstall``
restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    bytes: int = 0
    iterations: int = 0


class Tracer:
    """Stack-based self-time accounting over wrapped callables."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call opens a span charged to ``name``;
        ``on_result(stats, result)`` may add counts measured from the
        call's result."""
        stats = self.layer(name)
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = child_time.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if child_time:
                    child_time[-1] += dt
            if on_result is not None:
                on_result(stats, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by ``uninstall``)."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


_LOCAL_ORACLES = ("eval_g_all", "eval_grad1_all", "eval_grad2_all", "apply_grad_g_all", "eval_f_all")


def install(tracer: Tracer, dagopt) -> None:
    """Wrap the public functions of every dagopt layer the workloads use.

    ``dagopt`` is the imported package (with ``engine``, ``network``,
    ``privacy``, ``problems`` and ``harness`` loaded)."""
    engine = dagopt.engine
    problems_base = dagopt.problems.base
    experiments = dagopt.harness.experiments
    config = dagopt.harness.config

    def count_bytes(stats, result):
        stats.bytes += result.nbytes

    def count_iterations(stats, result):
        stats.iterations += result.iterations

    tracer.patch(engine, "noise_vector", "schedules.noise_vector")
    tracer.patch(dagopt.network.WeightMatrix, "offdiag", "network.offdiag", count_bytes)
    tracer.patch(config, "build_weight_matrix", "network.build_weight_matrix")
    tracer.patch(problems_base.AggregativeProblem, "eval_project_all", "problems.eval_project_all")
    for attr in _LOCAL_ORACLES:
        tracer.patch(problems_base.AggregativeProblem, attr, "problems.local_oracles")
    tracer.patch(engine, "F_value", "problems.F_metrics")
    tracer.patch(engine, "F_grad", "problems.F_metrics")
    tracer.patch(experiments, "centralized_oracle", "problems.centralized_oracle", count_iterations)
    tracer.patch(engine, "step", "engine.step")
    tracer.patch(engine, "step_baseline", "engine.step_baseline")
    tracer.patch(engine, "run", "engine.run")
    tracer.patch(dagopt.privacy, "epsilon", "privacy.epsilon")
