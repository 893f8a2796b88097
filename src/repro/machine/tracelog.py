"""Detailed access logging -- the "modified mspdebug" in full.

The aggregate :class:`AccessCounters` suffice for every paper artifact,
but debugging a cache runtime (or exploring new policies) wants the
actual access stream. :class:`TraceLog` subscribes to the bus's
fetch/read/write events through the observation seam
(:mod:`repro.machine.observe`) and records every access as
``(sequence, attribution, type, address, region)`` into a bounded ring,
with filters so a long run does not drown the interesting window. It
can be attached and detached at any point during a run, in any order
with other observers.
"""

from collections import deque
from dataclasses import dataclass

from repro.machine.observe import observe, unobserve
from repro.machine.trace import FETCH, READ, WRITE


@dataclass(frozen=True)
class TraceEvent:
    """One logged memory access."""

    sequence: int
    attribution: str
    access: str  # 'fetch' | 'read' | 'write'
    address: int
    region: str

    def __str__(self):
        return (
            f"{self.sequence:>8} {self.attribution:<8} {self.access:<5} "
            f"{self.address:#06x} {self.region}"
        )


class TraceLog:
    """Bounded access log attached to a :class:`~repro.machine.bus.Bus`."""

    def __init__(
        self,
        bus,
        capacity=4096,
        regions=None,
        kinds=None,
        address_range=None,
    ):
        self.bus = bus
        self.events = deque(maxlen=capacity)
        self.regions = set(regions) if regions else None
        self.kinds = set(kinds) if kinds else None
        self.address_range = address_range
        self.sequence = 0

    # -- attachment -------------------------------------------------------------

    def attach(self):
        """Start logging (idempotent)."""
        observe(self.bus.board, self)
        return self

    def detach(self):
        """Stop logging (idempotent)."""
        unobserve(self.bus.board, self)
        return self

    def finish(self, result=None):
        """Stop logging: the session protocol of :func:`repro.systems.run`."""
        return self.detach()

    def __enter__(self):
        return self.attach()

    def __exit__(self, *exc):
        self.detach()
        return False

    # -- recording -----------------------------------------------------------------

    def on_fetch(self, address, words):
        for index in range(words):
            self._record(FETCH, address + 2 * index)

    def on_read(self, address, byte):
        self._record(READ, address)

    def on_write(self, address, value, byte):
        self._record(WRITE, address)

    def _record(self, access, address):
        self.sequence += 1
        if self.kinds and access not in self.kinds:
            return
        address &= 0xFFFF
        if self.address_range and not (
            self.address_range[0] <= address < self.address_range[1]
        ):
            return
        region = self.bus.memory_map.kind_at(address)
        if self.regions and region not in self.regions:
            return
        self.events.append(
            TraceEvent(
                sequence=self.sequence,
                attribution=self.bus.attribution.value,
                access=access,
                address=address,
                region=region.value,
            )
        )

    # -- inspection ---------------------------------------------------------------------

    def dump(self, limit=None):
        """Render the most recent events as text."""
        events = list(self.events)
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(event) for event in events)

    def addresses(self):
        return [event.address for event in self.events]

    def by_region(self):
        tally = {}
        for event in self.events:
            tally[event.region] = tally.get(event.region, 0) + 1
        return tally
