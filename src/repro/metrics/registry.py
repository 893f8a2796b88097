"""The metric primitives: counters, gauges, histograms, phase timers.

Everything here is plain host-side bookkeeping -- no simulated cycles,
no bus traffic. A :class:`MetricsRegistry` is a named bag of metrics
that serializes to plain data (``as_dict``) for the ``BENCH_*.json``
snapshots and the comparison gate.

The registry follows the same opt-in discipline as ``repro.obs``: it
hears the cache runtimes' events only through an
:class:`~repro.metrics.instrument.EventMetrics` on the observation
seam, and with no subscriber ``board.emit`` is ``None`` (see
``benchmarks/test_simulator_speed.py`` for the guard).

:class:`PhaseTimer` is the one sanctioned way to measure host
wall-clock in this repo. ``repro.obs.session``, the experiments runner,
``python -m repro.experiments`` and the snapshot harness all route
their timing through it, so "how long did phase X take" always means
the same thing.
"""

import time


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def as_dict(self):
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = None

    def set(self, value):
        self.value = value

    def as_dict(self):
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of observed values (count/sum/min/max).

    Deliberately bucketless: the snapshot gate compares aggregate
    ratios, and keeping only four scalars keeps the attached-run cost
    to a few attribute updates per observation.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class PhaseTimer:
    """Named, accumulating wall-clock phases.

    Use as a context manager for scoped phases::

        timer = PhaseTimer()
        with timer.phase("compile"):
            program = compile_program(source)

    or ``start``/``stop`` when the span crosses call boundaries (the
    way :class:`~repro.obs.session.TraceSession` times attach→finish).
    Re-entering a phase name accumulates into the same bucket, so a
    loop timed phase-by-phase sums naturally. *clock* is injectable for
    deterministic tests.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._running = {}  # name -> start timestamp
        self._elapsed = {}  # name -> accumulated seconds
        self._counts = {}  # name -> completed spans

    def start(self, name):
        if name in self._running:
            raise RuntimeError(f"phase {name!r} is already running")
        self._running[name] = self._clock()
        return self

    def stop(self, name):
        """Close the named phase; returns the span's seconds."""
        started = self._running.pop(name, None)
        if started is None:
            raise RuntimeError(f"phase {name!r} is not running")
        span = self._clock() - started
        self._elapsed[name] = self._elapsed.get(name, 0.0) + span
        self._counts[name] = self._counts.get(name, 0) + 1
        return span

    def phase(self, name):
        return _PhaseSpan(self, name)

    def running(self, name):
        return name in self._running

    def seconds(self, name):
        """Accumulated seconds for *name* (0.0 if never timed)."""
        return self._elapsed.get(name, 0.0)

    def count(self, name):
        return self._counts.get(name, 0)

    @property
    def total_seconds(self):
        return sum(self._elapsed.values())

    def as_dict(self):
        """``{name: {"seconds": s, "count": n}}`` for completed phases."""
        return {
            name: {"seconds": seconds, "count": self._counts.get(name, 0)}
            for name, seconds in self._elapsed.items()
        }


class _PhaseSpan:
    """Context manager for one ``PhaseTimer.phase(name)`` span."""

    __slots__ = ("timer", "name")

    def __init__(self, timer, name):
        self.timer = timer
        self.name = name

    def __enter__(self):
        self.timer.start(self.name)
        return self.timer

    def __exit__(self, *exc):
        self.timer.stop(self.name)
        return False


class MetricsRegistry:
    """A named collection of metrics, created on first use.

    ``registry.counter("swapram.misses")`` returns the same
    :class:`Counter` every call, so instrumentation sites never need to
    pre-declare what they record.
    """

    def __init__(self):
        self._metrics = {}

    def _get(self, name, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory(name)
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, "
                f"not {factory.__name__}"
            )
        return metric

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name):
        return self._get(name, Histogram)

    def __contains__(self, name):
        return name in self._metrics

    def __getitem__(self, name):
        return self._metrics[name]

    def __iter__(self):
        return iter(sorted(self._metrics))

    def __len__(self):
        return len(self._metrics)

    def as_dict(self):
        """Plain-data view, sorted by metric name."""
        return {name: self._metrics[name].as_dict() for name in self}
