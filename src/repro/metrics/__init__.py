"""Continuous performance telemetry: metrics, snapshots, the gate.

The metrics layer is the quantitative half of the observability story
(:mod:`repro.obs` is the qualitative half): lightweight counters,
gauges, histograms and phase timers with the same zero-cost-when-
detached discipline -- a registry is one more subscriber of the
observation seam (:mod:`repro.machine.observe`), and a board that no
:class:`MetricsSession` observes has no event handler to call.

* :mod:`repro.metrics.registry` -- the metric primitives and
  :class:`PhaseTimer`, the single host-timing code path;
* :mod:`repro.metrics.instrument` -- attach/detach glue and derived
  rates over ``SwapRamStats``/``BlockCacheStats``/``RunResult``;
* :mod:`repro.metrics.snapshot` -- the ``BENCH_<n>.json`` trajectory;
* :mod:`repro.metrics.compare` -- the regression gate CI runs;
* :mod:`repro.metrics.cli` -- the ``repro bench`` subcommand.
"""

from repro.metrics.compare import (
    CompareReport,
    DEFAULT_THRESHOLDS,
    MetricDelta,
    compare_snapshots,
)
from repro.metrics.instrument import (
    MetricsSession,
    derive_run_metrics,
    derive_stats_metrics,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
)
from repro.metrics.snapshot import (
    SCHEMA,
    load_snapshot,
    next_snapshot_path,
    snapshot_run,
    take_snapshot,
    validate_snapshot,
    write_snapshot,
)

__all__ = [
    "CompareReport",
    "Counter",
    "DEFAULT_THRESHOLDS",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "MetricsSession",
    "PhaseTimer",
    "SCHEMA",
    "compare_snapshots",
    "derive_run_metrics",
    "derive_stats_metrics",
    "load_snapshot",
    "next_snapshot_path",
    "snapshot_run",
    "take_snapshot",
    "validate_snapshot",
    "write_snapshot",
]
