"""Detailed access logging -- the "modified mspdebug" in full.

The aggregate :class:`AccessCounters` suffice for every paper artifact,
but debugging a cache runtime (or exploring new policies) wants the
actual access stream. :class:`TraceLog` subscribes to the bus's
fetch/read/write events through the observation seam
(:mod:`repro.machine.observe`) and records every access into a bounded
ring, with filters so a long run does not drown the interesting window.
It can be attached and detached at any point during a run, in any order
with other observers.

The ring holds raw ``(sequence, attribution, access, address)`` tuples:
recording one is an append, with no object built and no enum read. The
memory map is static, so each access's region is looked up only when
:attr:`TraceLog.events` turns the ring into :class:`TraceEvent` records.
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
    """Bounded access log attached to a :class:`~repro.machine.bus.Bus`.

    The filters -- access *kinds*, region *regions* and the half-open
    *address_range* -- are fixed at construction; an access is kept only
    if it passes all of them, while ``sequence`` counts every access.
    """

    def __init__(
        self,
        bus,
        capacity=4096,
        regions=None,
        kinds=None,
        address_range=None,
    ):
        self.bus = bus
        self._ring = deque(maxlen=capacity)
        self.regions = set(regions) if regions else None
        self.kinds = set(kinds) if kinds else None
        self.address_range = address_range
        self._filtered = bool(self.regions or self.kinds or address_range)
        self.sequence = 0

    @property
    def events(self):
        """The kept accesses, oldest first, as :class:`TraceEvent` records."""
        kind_at = self.bus.memory_map.kind_at
        return [
            TraceEvent(
                sequence, attribution.value, access, address, kind_at(address).value
            )
            for sequence, attribution, access, address in self._ring
        ]

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
        if self._filtered:
            for index in range(words):
                self._record(FETCH, address + 2 * index)
            return
        sequence = self.sequence + 1
        attribution = self.bus.attribution
        if words == 1:
            self.sequence = sequence
            self._ring.append((sequence, attribution, FETCH, address & 0xFFFF))
            return
        append = self._ring.append
        for index in range(words):
            append(
                (sequence + index, attribution, FETCH, (address + 2 * index) & 0xFFFF)
            )
        self.sequence = sequence + words - 1

    def on_read(self, address, byte):
        if self._filtered:
            self._record(READ, address)
        else:
            self.sequence += 1
            self._ring.append(
                (self.sequence, self.bus.attribution, READ, address & 0xFFFF)
            )

    def on_write(self, address, value, byte):
        if self._filtered:
            self._record(WRITE, address)
        else:
            self.sequence += 1
            self._ring.append(
                (self.sequence, self.bus.attribution, WRITE, address & 0xFFFF)
            )

    def _record(self, access, address):
        """Count one access and keep it if it passes the filters."""
        self.sequence += 1
        if self.kinds and access not in self.kinds:
            return
        address &= 0xFFFF
        if self.address_range and not (
            self.address_range[0] <= address < self.address_range[1]
        ):
            return
        if self.regions and self.bus.memory_map.kind_at(address) not in self.regions:
            return
        self._ring.append((self.sequence, self.bus.attribution, access, address))

    # -- inspection ---------------------------------------------------------------------

    def dump(self, limit=None):
        """Render the most recent events as text."""
        events = self.events
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
