"""Truthful distributed aggregative optimization simulator.

A library + CLI for simulating noise-injected gradient-tracking over an
agent network: each agent i holds a local objective f_i(x^i, phi(x)) that
depends on the network-wide aggregate phi(x) = (1/m) sum_i g_i(x^i).  The
package provides

- decaying schedules and per-run Laplace noise streams (``schedules``)
- mixing-matrix construction and validation (``network``)
- problem instances: EV charging and synthetic test problems (``problems``)
- the synchronous-rounds integrator plus a conventional gradient-tracking
  baseline (``engine``)
- joint-differential-privacy budget and truthfulness-bound accounting
  (``privacy``)
- experiment orchestration and the ``dagopt`` CLI (``harness``)
"""

__version__ = "0.1.0"
