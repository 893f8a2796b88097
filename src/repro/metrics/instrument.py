"""Attaching metrics to built systems, and deriving rates from stats.

:class:`EventMetrics` folds the events that the cache runtimes and the
fault harness report through ``board.emit`` (:mod:`repro.machine.observe`)
into a :class:`~repro.metrics.registry.MetricsRegistry`, by the one
:data:`EVENT_METRICS` table. :class:`MetricsSession`, the metrics twin of
:class:`~repro.obs.session.TraceSession`, observes a target's board
with one and times the attached span through a :class:`PhaseTimer`.

The derivation helpers turn the exact counters the runtimes already
keep (:class:`~repro.core.runtime.SwapRamStats`,
:class:`~repro.blockcache.runtime.BlockCacheStats`) and a finished
:class:`~repro.machine.board.RunResult` into the rate metrics the
snapshot gate tracks: miss/evict/abort rates, copied bytes, host
instructions per second.
"""

from repro.machine.observe import observe, unobserve
from repro.metrics.registry import MetricsRegistry, PhaseTimer

RUN_PHASE = "run"


def _observe(name, field):
    return lambda registry, fields: registry.histogram(name).observe(fields[field])


def _swapram_cache(registry, fields):
    registry.counter("swapram.caches").inc()
    registry.histogram("swapram.cached_function_bytes").observe(fields["size"])
    registry.gauge("swapram.occupancy_bytes").set(fields["occupancy"])


def _datacache_writeback(registry, fields):
    # One kind drains a line both on eviction and at the halt flush.
    flush = fields["note"] == "flush"
    registry.counter("datacache.flushes" if flush else "datacache.writebacks").inc()


#: Event kind -> the counter it increments, or its registry update
#: ``update(registry, fields)``. Kinds absent here (``swapram.miss``,
#: ``swapram.freeze``, ``blockcache.cache``, ``datacache.line-fill``)
#: only feed timelines; ``*.entry``, ``*.copy`` and ``datacache.fill``
#: only feed metrics: they mark where the runtime starts the work,
#: before any bus traffic a power failure could cut short.
EVENT_METRICS = {
    "swapram.entry": "swapram.misses",
    "swapram.prefetch": "swapram.prefetches",
    "swapram.nvm-fallback": "swapram.nvm_fallbacks",
    "swapram.abort": "swapram.aborts",
    "swapram.cache": _swapram_cache,
    "swapram.evict": "swapram.evictions",
    "swapram.copy": _observe("swapram.copied_words", "words"),
    "blockcache.entry": "blockcache.entries",
    "blockcache.hit": "blockcache.hits",
    "blockcache.miss": "blockcache.misses",
    "blockcache.flush": "blockcache.flushes",
    "blockcache.copy": _observe("blockcache.copied_words", "words"),
    "blockcache.chain": "blockcache.chains",
    "datacache.fill": "datacache.fills",
    "datacache.writeback": _datacache_writeback,
    "datacache.bypass": "datacache.bypasses",
    "datacache.clean": "datacache.cleans",
    "datacache.lost-dirty": "datacache.lost_dirty_lines",
    "faults.power-down": "faults.power_failures",
    "faults.power-up": "faults.power_cycles",
}


class EventMetrics:
    """A seam subscriber updating *registry* through :data:`EVENT_METRICS`."""

    def __init__(self, registry):
        self.registry = registry

    def on_event(self, kind, **fields):
        update = EVENT_METRICS.get(kind)
        if isinstance(update, str):
            self.registry.counter(update).inc()
        elif update is not None:
            update(self.registry, fields)


class MetricsSession:
    """A live metrics attachment to one board/system."""

    def __init__(self, target, registry, timer):
        self.target = target
        self.registry = registry
        self.timer = timer
        self.board = getattr(target, "board", target)
        self.subscriber = observe(self.board, EventMetrics(registry))

    @classmethod
    def attach(cls, target, registry=None, timer=None):
        """Count the target's runtime events into *registry*.

        Works on a bare :class:`~repro.machine.board.Board` too -- the
        registry then only receives derived metrics, because baseline
        boards have no runtime to report events.
        """
        registry = registry if registry is not None else MetricsRegistry()
        timer = timer if timer is not None else PhaseTimer()
        timer.start(RUN_PHASE)
        return cls(target, registry, timer)

    def detach(self):
        """Stop counting and close the run phase; idempotent."""
        if self.timer.running(RUN_PHASE):
            self.timer.stop(RUN_PHASE)
        unobserve(self.board, self.subscriber)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False

    @property
    def host_seconds(self):
        return self.timer.seconds(RUN_PHASE)

    def finish(self, result=None):
        """Detach and fold the run's derived metrics into the registry."""
        self.detach()
        stats = getattr(self.target, "stats", None)
        if result is not None:
            derive_run_metrics(self.registry, result, self.host_seconds)
        if stats is not None:
            derive_stats_metrics(self.registry, stats)
        return self


def derive_run_metrics(registry, result, host_seconds=None):
    """Guest totals (and host throughput) as gauges on *registry*."""
    record = result.as_dict() if hasattr(result, "as_dict") else dict(result)
    for key in (
        "instructions",
        "unstalled_cycles",
        "stall_cycles",
        "total_cycles",
        "fram_accesses",
        "sram_accesses",
        "runtime_us",
        "energy_nj",
    ):
        registry.gauge(f"guest.{key}").set(record[key])
    if host_seconds:
        registry.gauge("host.seconds").set(host_seconds)
        registry.gauge("host.instructions_per_s").set(
            record["instructions"] / host_seconds
        )
    return registry


def derive_stats_metrics(registry, stats):
    """Rate metrics over a runtime's stats counters.

    Dispatches on shape: data-cache stats carry ``lost_dirty_lines``
    (checked first -- they also expose a ``misses`` property), SwapRAM
    stats carry ``misses``/``caches``/``evictions``/``aborts``,
    block-cache stats carry ``entries``/``hits``. Rates are per
    miss-handler entry so they stay comparable across cache-size and
    policy changes.
    """
    if hasattr(stats, "lost_dirty_lines"):  # DataCacheStats
        accesses = max(stats.accesses, 1)
        registry.gauge("datacache.hit_rate").set(stats.hits / accesses)
        registry.gauge("datacache.miss_rate").set(stats.misses / accesses)
        registry.gauge("datacache.bypass_rate").set(stats.bypasses / accesses)
        registry.gauge("datacache.writeback_rate").set(
            stats.writebacks / accesses
        )
        registry.gauge("datacache.clean_rate").set(
            stats.clean_writebacks / accesses
        )
        registry.gauge("datacache.lost_dirty_lines").set(
            stats.lost_dirty_lines
        )
    elif hasattr(stats, "entries"):  # BlockCacheStats
        entries = max(stats.entries, 1)
        registry.gauge("blockcache.hit_rate").set(stats.hits / entries)
        registry.gauge("blockcache.miss_rate").set(stats.misses / entries)
        registry.gauge("blockcache.flush_rate").set(stats.flushes / entries)
        registry.gauge("blockcache.copy_bytes").set(2 * stats.words_copied)
    elif hasattr(stats, "misses"):  # SwapRamStats
        misses = max(stats.misses, 1)
        registry.gauge("swapram.cache_rate").set(stats.caches / misses)
        registry.gauge("swapram.evict_rate").set(stats.evictions / misses)
        registry.gauge("swapram.abort_rate").set(stats.aborts / misses)
        registry.gauge("swapram.nvm_fallback_rate").set(
            stats.nvm_fallbacks / misses
        )
        registry.gauge("swapram.copy_bytes").set(2 * stats.words_copied)
        registry.gauge("swapram.thrash_ratio").set(stats.thrash_ratio)
    return registry
