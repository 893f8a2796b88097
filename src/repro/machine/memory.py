"""Flat 64 KiB address space with typed memory regions.

Mirrors the MSP430FR2355 memory map the paper evaluates on:

* ``0x0000-0x0FFF`` -- peripherals (we expose three debug ports)
* ``0x2000-0x2FFF`` -- 4 KiB SRAM
* ``0x8000-0xFFFF`` -- 32 KiB FRAM

Region sizes are configurable so the split-memory experiments
(Figure 10) and smaller/larger devices can be modelled.
"""

from dataclasses import dataclass
from enum import Enum
from typing import List

#: Writing a word here records it as benchmark output (the UART stand-in).
DEBUG_OUT_PORT = 0x0200
#: Writing anything here stops the simulation cleanly.
HALT_PORT = 0x0202
#: Writing here records the low byte as an output character.
PUTC_PORT = 0x0204


class RegionKind(Enum):
    """What physical memory backs an address range."""

    SRAM = "sram"
    FRAM = "fram"
    MMIO = "mmio"
    UNMAPPED = "unmapped"

    def __init__(self, value):
        #: Dense index in definition order: this kind's column in the
        #: flat tallies of :class:`~repro.machine.trace.AccessCounters`.
        self.slot = len(type(self).__members__)


@dataclass(frozen=True)
class Region:
    """A contiguous address range of one :class:`RegionKind`."""

    name: str
    start: int
    size: int
    kind: RegionKind

    @property
    def end(self):
        return self.start + self.size

    def contains(self, address):
        return self.start <= address < self.end


class MemoryMap:
    """An ordered set of non-overlapping regions over the 64 KiB space.

    Builds a per-address kind table once so the hot access path is a
    single list index.
    """

    def __init__(self, regions: List[Region]):
        spans = sorted(regions, key=lambda region: region.start)
        for left, right in zip(spans, spans[1:]):
            if right.start < left.end:
                raise ValueError(
                    f"regions overlap: {left.name} and {right.name}"
                )
        self.regions = spans
        self._kinds = [RegionKind.UNMAPPED] * 0x10000
        self._names = [None] * 0x10000
        for region in spans:
            for address in range(region.start, region.end):
                self._kinds[address] = region.kind
                self._names[address] = region.name

    def kind_at(self, address):
        """Physical kind of byte *address*."""
        return self._kinds[address & 0xFFFF]

    def region_named(self, name):
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def region_at(self, address):
        for region in self.regions:
            if region.contains(address & 0xFFFF):
                return region
        return None

    @property
    def sram(self):
        return self.region_named("sram")

    @property
    def fram(self):
        return self.region_named("fram")


def fr2355_memory_map(sram_size=0x1000, fram_size=0x8000):
    """The MSP430FR2355 map (4 KiB SRAM at 0x2000, 32 KiB FRAM at 0x8000).

    Shrinking *fram_size* keeps the FRAM ending at 0xFFFF as on silicon.
    """
    if sram_size > 0x6000:
        raise ValueError("SRAM cannot extend past 0x8000")
    fram_start = 0x10000 - fram_size
    if fram_start < 0x3000:
        raise ValueError("FRAM too large for the FR2355-style map")
    return MemoryMap(
        [
            Region("mmio", 0x0100, 0x0200, RegionKind.MMIO),
            Region("sram", 0x2000, sram_size, RegionKind.SRAM),
            Region("fram", fram_start, fram_size, RegionKind.FRAM),
        ]
    )


class Memory:
    """Raw 64 KiB backing store (no accounting -- that is the Bus's job)."""

    def __init__(self):
        self.data = bytearray(0x10000)

    def read_byte(self, address):
        return self.data[address & 0xFFFF]

    def write_byte(self, address, value):
        self.data[address & 0xFFFF] = value & 0xFF

    def read_word(self, address):
        address &= 0xFFFF
        return self.data[address] | (self.data[(address + 1) & 0xFFFF] << 8)

    def write_word(self, address, value):
        address &= 0xFFFF
        self.data[address] = value & 0xFF
        self.data[(address + 1) & 0xFFFF] = (value >> 8) & 0xFF

    def write_bytes(self, address, blob):
        address &= 0xFFFF
        self.data[address : address + len(blob)] = blob

    def read_bytes(self, address, length):
        address &= 0xFFFF
        return bytes(self.data[address : address + length])

    # -- whole-store checkpointing (fault injection) ---------------------------

    def snapshot(self):
        """Immutable copy of the whole 64 KiB store."""
        return bytes(self.data)

    def restore(self, blob):
        """Overwrite the store in place (keeps every outstanding reference)."""
        if len(blob) != len(self.data):
            raise ValueError(f"snapshot is {len(blob)} bytes, expected {len(self.data)}")
        self.data[:] = blob
