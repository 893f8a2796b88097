"""The structured runtime event timeline.

Aggregate counters (:class:`~repro.machine.trace.AccessCounters`,
``SwapRamStats``) say *how much* happened; the timeline says *when*.
Every runtime event -- miss, cache, evict, abort, nvm-fallback, freeze,
prefetch, and the block cache's hit/flush/chain -- plus every call and
return observed by the :mod:`repro.obs.collector` is recorded as a
:class:`TimelineEvent` stamped with the board's cycle count at the
moment it happened and (for cache events) a snapshot of the SRAM cache
occupancy.

A timeline subscribes to the observation seam
(:mod:`repro.machine.observe`): the runtimes report each event once as
``board.emit("<source>.<kind>", **fields)``, and :meth:`Timeline.on_event`
keeps the kinds documented below. The collector records calls and
returns straight into its own session's timeline. A board observed by
no timeline pays nothing: ``board.emit`` is ``None`` and each emitting
site is behind one ``is not None`` guard.
"""

from dataclasses import dataclass
from typing import Optional

#: Event kinds emitted by the SwapRAM runtime (paper §3.3 control flow).
SWAPRAM_KINDS = (
    "miss",
    "cache",
    "evict",
    "abort",
    "nvm-fallback",
    "freeze",
    "prefetch",
)

#: Event kinds emitted by the block-cache runtime.
BLOCKCACHE_KINDS = ("hit", "miss", "cache", "flush", "chain")

#: Event kinds emitted by the collector's call-stack tracking.
CALL_KINDS = ("call", "return")

#: Event kinds emitted by the fault-injection harness around a
#: power cycle (see :mod:`repro.faults.harness`).
POWER_KINDS = ("power-down", "power-up")

#: Event kinds emitted by the data-plane cache runtime
#: (:mod:`repro.datacache.runtime`). ``writeback`` covers both
#: eviction- and halt-driven drains; ``clean`` is a cleaning-policy
#: drain; ``lost-dirty`` marks a dirty line discarded by power loss.
DATACACHE_KINDS = ("line-fill", "writeback", "clean", "bypass", "lost-dirty")

#: What :meth:`Timeline.on_event` records. Emitters prefix each kind
#: with their source, since the runtimes share names (``miss``,
#: ``cache``) that count towards different metrics.
RECORDED_KINDS = frozenset(
    SWAPRAM_KINDS + BLOCKCACHE_KINDS + DATACACHE_KINDS + POWER_KINDS
)


@dataclass
class TimelineEvent:
    """One timestamped runtime event."""

    cycle: int
    kind: str
    func: str = ""
    func_id: int = -1
    address: Optional[int] = None
    size: Optional[int] = None
    occupancy: Optional[int] = None  # SRAM cache bytes in use, if known
    note: str = ""

    def as_dict(self):
        record = {"cycle": self.cycle, "kind": self.kind}
        if self.func:
            record["func"] = self.func
        if self.func_id >= 0:
            record["func_id"] = self.func_id
        if self.address is not None:
            record["address"] = self.address
        if self.size is not None:
            record["size"] = self.size
        if self.occupancy is not None:
            record["occupancy"] = self.occupancy
        if self.note:
            record["note"] = self.note
        return record

    def __str__(self):
        parts = [f"{self.cycle:>10}", f"{self.kind:<12}", self.func or "-"]
        if self.address is not None:
            parts.append(f"@{self.address:#06x}")
        if self.size is not None:
            parts.append(f"{self.size}B")
        if self.occupancy is not None:
            parts.append(f"occ={self.occupancy}")
        if self.note:
            parts.append(f"({self.note})")
        return " ".join(parts)


class Timeline:
    """An append-only event log stamped from a board's cycle counters.

    *counters* is an :class:`AccessCounters`, or a board, whose current
    counters are then read at each stamp (so a later
    :func:`~repro.machine.power.install_fused_counters` is seen). The
    stamp is ``total_cycles`` at record time, so events recorded in
    order carry monotonically non-decreasing timestamps. *limit*
    optionally bounds the kept events; once full, further events are
    counted in ``dropped`` but not stored.
    """

    def __init__(self, counters, limit=None):
        self._source = counters
        self.limit = limit
        self.events = []
        self.dropped = 0

    @property
    def counters(self):
        return getattr(self._source, "counters", self._source)

    @property
    def cycle(self):
        """The board's current cycle count (the next event's stamp)."""
        return self.counters.total_cycles

    def record(self, kind, **fields):
        """Append one event (*fields* as :class:`TimelineEvent`'s) stamped
        with the current cycle count."""
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return None
        event = TimelineEvent(self.counters.total_cycles, kind, **fields)
        self.events.append(event)
        return event

    def on_event(self, kind, **fields):
        """Seam handler: record ``<source>.<kind>`` for a documented kind."""
        kind = kind.partition(".")[2]
        if kind in RECORDED_KINDS:
            self.record(kind, **fields)

    def by_kind(self):
        """Event count per kind."""
        tally = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    def of_kind(self, *kinds):
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]


def occupancy_intervals(events, final_cycle=None):
    """Which function occupied which SRAM bytes, when.

    Folds the timeline's ``cache``/``prefetch`` and ``evict``/``flush``
    events into residency intervals::

        {"func": ..., "address": ..., "size": ...,
         "start_cycle": ..., "end_cycle": ...}

    ``end_cycle`` is ``None`` for functions still resident at the end of
    the run unless *final_cycle* is given.
    """
    live = {}  # address -> open interval dict
    intervals = []

    def close(interval, cycle):
        interval["end_cycle"] = cycle
        intervals.append(interval)

    for event in events:
        if event.kind in ("cache", "prefetch") and event.address is not None:
            # Re-caching over a stale address closes the old residency.
            if event.address in live:
                close(live.pop(event.address), event.cycle)
            live[event.address] = {
                "func": event.func,
                "address": event.address,
                "size": event.size,
                "start_cycle": event.cycle,
                "end_cycle": None,
            }
        elif event.kind == "evict" and event.address is not None:
            if event.address in live:
                close(live.pop(event.address), event.cycle)
        elif event.kind == "flush":
            for address in sorted(live):
                close(live.pop(address), event.cycle)
    for address in sorted(live):
        interval = live[address]
        interval["end_cycle"] = final_cycle
        intervals.append(interval)
    intervals.sort(key=lambda interval: (interval["start_cycle"], interval["address"]))
    return intervals
