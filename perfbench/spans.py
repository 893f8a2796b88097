"""Host-time tracing for the traced run, kept outside the program's code.

Three instruments, all installed from here and nothing inside ``src/``:

* :class:`Spans` -- coarse spans (workload > pass > cell > compile /
  link / build / capture / run / replay) with id, parent and cell id,
  held in memory and written out when the run ends;
* :class:`LayerClock` -- aggregated spans at the public hot-path
  boundaries: per layer, a call count and *self* seconds kept on a span
  stack, so a nested call's time is charged to the innermost layer only;
  :func:`install_layers` wraps the listed class methods with it;
* :func:`count_python_calls` -- a ``sys.setprofile`` pass counting
  Python function calls, a deterministic proxy for host work.

The simulator is single-threaded, so no layer ever waits on another and
no wait time is recorded.
"""

import sys
import time
from contextlib import contextmanager

from repro.core.runtime import SwapRamRuntime
from repro.datacache.runtime import DataCacheRuntime
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.energy import EnergyModel
from repro.machine.fram_cache import FramReadCache
from repro.machine.trace import AccessCounters
from repro.machine.tracelog import TraceLog
from repro.obs.collector import Collector
from repro.replay import ReplayEngine


class Spans:
    """Coarse spans, recorded in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name, cell=None):
        record = {
            "id": len(self.records),
            "parent": self._open[-1]["id"] if self._open else None,
            "cell": cell,
            "name": name,
            "start": self.clock(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = self.clock()

    def seconds(self, name):
        """Total duration of every finished span called *name*."""
        return sum(
            record["end"] - record["start"]
            for record in self.records
            if record["name"] == name and record["end"] is not None
        )


class NullSpans(Spans):
    """Spans that time nothing (the untraced run)."""

    @contextmanager
    def span(self, name, cell=None):
        yield None


class LayerClock:
    """Per-layer call counts and self seconds from a span stack.

    A frame is ``[start, child_seconds]``; when it closes, its elapsed
    time is added to the parent's children and ``elapsed - children``
    to its own layer. The self times of all layers opened under one
    root therefore add up to the root's elapsed time.
    """

    def __init__(self, layers, clock=time.perf_counter):
        self.clock = clock
        self.layers = tuple(layers)
        self.stack = []
        self.totals = {}
        self.reset()

    def reset(self):
        for layer in self.layers:
            self.totals[layer] = [0, 0.0]

    def take(self):
        """This interval's ``{layer: (calls, self_s)}``; then reset."""
        taken = {layer: tuple(entry) for layer, entry in self.totals.items()}
        self.reset()
        return taken

    def wrap(self, function, layer):
        stack = self.stack
        clock = self.clock
        totals = self.totals

        def timed(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                entry = totals[layer]
                entry[0] += 1
                entry[1] += elapsed - frame[1]

        timed.__wrapped__ = function
        return timed

    def call(self, layer, function, *args, **kwargs):
        """Run *function* as a span of *layer* (a root at the call site)."""
        return self.wrap(function, layer)(*args, **kwargs)


#: The root of an executed cell: ``system.run`` / ``Board.run`` and its
#: ``Cpu.run`` loop, plus whatever runs outside every other layer.
BOARD = "machine.board"

#: Class-level wrappers: (layer, class, method names).
LAYER_METHODS = (
    ("machine.cpu", Cpu, ("step",)),
    ("machine.bus", Bus, ("fetch_word", "account_fetch", "read", "write")),
    ("machine.fram_cache", FramReadCache, ("access", "invalidate")),
    (
        "machine.accounting",
        AccessCounters,
        ("record_fetch", "record_data", "record_instruction"),
    ),
    ("machine.accounting", EnergyModel, ("energy_nj",)),
    ("core", SwapRamRuntime, ("__call__",)),
    ("datacache", DataCacheRuntime, ("app_read", "app_write", "on_halt")),
    ("replay", ReplayEngine, ("replay",)),
    ("observers", Collector, ("_step",)),
    ("observers", TraceLog, ("_record",)),
)

LAYERS = tuple(dict.fromkeys((BOARD,) + tuple(entry[0] for entry in LAYER_METHODS)))


@contextmanager
def install_layers(clock):
    """Wrap every method in :data:`LAYER_METHODS` for the duration.

    Installed on the classes, so every instance built or running while
    installed is measured, including methods observers rebind per
    instance (they capture the wrapped bound method).
    """
    saved = []
    try:
        for layer, cls, names in LAYER_METHODS:
            for name in names:
                original = cls.__dict__[name]
                saved.append((cls, name, original))
                setattr(cls, name, clock.wrap(original, layer))
        yield clock
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)


def count_python_calls(function, *args, **kwargs):
    """Run *function* under ``sys.setprofile``; returns (calls, result)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = function(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return calls, result
