"""Memory-access and instruction accounting.

This is the reproduction's version of the paper's modified ``mspdebug``:
every access is categorised by

* **type** -- instruction fetch, data read, data write;
* **physical region** -- SRAM, FRAM, MMIO;
* **attribution** -- application code, cache-runtime (miss handler),
  memcpy, or startup code -- the categories of Figure 8.

"FRAM accesses" in Table 2 are logical accesses to FRAM addresses
(counted before the hardware cache), which is what these counters
report.
"""

from collections import Counter
from enum import Enum
from types import MappingProxyType

from repro.machine.memory import RegionKind


class Attribution(Enum):
    """Who issued an access / executed an instruction (Figure 8 legend)."""

    APP = "app"
    RUNTIME = "runtime"
    MEMCPY = "memcpy"
    STARTUP = "startup"

    def __init__(self, value):
        #: Dense index in definition order: this attribution's row in the
        #: flat tallies of :class:`AccessCounters`.
        self.slot = len(type(self).__members__)


FETCH = "fetch"
READ = "read"
WRITE = "write"

# -- the flat tally layout ------------------------------------------------------
#
# An (attribution, region) pair owns slot ``attribution.slot * REGIONS
# + region.slot`` of the instruction tally. The access tally holds one
# such block per access type, starting at FETCH_BASE, READ_BASE and
# WRITE_BASE; the cycle tally is indexed by ``attribution.slot``. Enum
# members carry their slot, so recording is list arithmetic with no
# enum hashing.

REGIONS = len(RegionKind)
FETCH_BASE = 0
READ_BASE = len(Attribution) * REGIONS
WRITE_BASE = 2 * READ_BASE
_TYPE_BASE = {FETCH: FETCH_BASE, READ: READ_BASE, WRITE: WRITE_BASE}

#: The key of every slot, in slot order.
_INSTRUCTION_KEYS = tuple(
    (attribution, kind) for attribution in Attribution for kind in RegionKind
)
_ACCESS_KEYS = tuple(
    (attribution, kind, access_type)
    for access_type in _TYPE_BASE
    for attribution, kind in _INSTRUCTION_KEYS
)
_CYCLE_KEYS = tuple(Attribution)


def instruction_slot(attribution, region_kind):
    """Index of ``(attribution, region_kind)`` in ``instruction_counts``."""
    return attribution.slot * REGIONS + region_kind.slot


def access_slot(attribution, region_kind, access_type):
    """Index of ``(attribution, region_kind, access_type)`` in
    ``access_counts``."""
    return _TYPE_BASE[access_type] + instruction_slot(attribution, region_kind)


def _view(keys, counts):
    """A read-only ``Counter`` of the nonzero tallies, in slot order.

    Missing keys read as 0; ``view[key] += n`` raises ``TypeError``, so
    a stale writer fails loudly instead of dropping counts.
    """
    return MappingProxyType(
        Counter({key: count for key, count in zip(keys, counts) if count})
    )


class AccessCounters:
    """Tallies of accesses, instructions and cycles by category.

    The tallies are flat integer lists indexed by slot (see
    :func:`access_slot` and :func:`instruction_slot`); ``accesses``,
    ``instructions`` and ``cycles`` are read-only mapping views of them
    keyed as before.
    """

    #: The bus adds its accesses straight into ``access_counts`` while
    #: this is true. A subclass that must act on every access (the
    #: power fuses) sets it false, and the bus then calls its
    #: ``record_fetch`` and ``record_data`` instead.
    bus_tallies = True

    def __init__(self):
        self.access_counts = [0] * len(_ACCESS_KEYS)
        self.instruction_counts = [0] * len(_INSTRUCTION_KEYS)
        self.cycle_counts = [0] * len(_CYCLE_KEYS)  # unstalled cycles
        self.stall_cycles = 0

    # -- recording (hot path) -------------------------------------------------

    def record_fetch(self, attribution, region_kind, words):
        self.access_counts[attribution.slot * REGIONS + region_kind.slot] += words

    def record_data(self, attribution, region_kind, access_type, words=1):
        self.access_counts[
            _TYPE_BASE[access_type] + attribution.slot * REGIONS + region_kind.slot
        ] += words

    def record_instruction(self, attribution, region_kind, cycles):
        slot = attribution.slot
        self.instruction_counts[slot * REGIONS + region_kind.slot] += 1
        self.cycle_counts[slot] += cycles

    # -- keyed views -------------------------------------------------------------

    @property
    def accesses(self):
        """(attribution, region_kind, type) -> words."""
        return _view(_ACCESS_KEYS, self.access_counts)

    @property
    def instructions(self):
        """(attribution, region_kind) -> count."""
        return _view(_INSTRUCTION_KEYS, self.instruction_counts)

    @property
    def cycles(self):
        """attribution -> unstalled cycles."""
        return _view(_CYCLE_KEYS, self.cycle_counts)

    # -- aggregate views -------------------------------------------------------

    def _sum_region(self, region_kind, types=None):
        return sum(
            count
            for (attribution, kind, access_type), count in self.accesses.items()
            if kind is region_kind and (types is None or access_type in types)
        )

    @property
    def fram_accesses(self):
        """All logical accesses (fetch + read + write) to FRAM addresses."""
        return self._sum_region(RegionKind.FRAM)

    @property
    def sram_accesses(self):
        return self._sum_region(RegionKind.SRAM)

    @property
    def code_accesses(self):
        return sum(
            count
            for (attribution, kind, access_type), count in self.accesses.items()
            if access_type == FETCH
        )

    @property
    def data_accesses(self):
        return sum(
            count
            for (attribution, kind, access_type), count in self.accesses.items()
            if access_type in (READ, WRITE)
        )

    @property
    def code_data_ratio(self):
        """Table 1's code/data access ratio."""
        data = self.data_accesses
        return self.code_accesses / data if data else float("inf")

    @property
    def total_instructions(self):
        return sum(self.instruction_counts)

    @property
    def unstalled_cycles(self):
        return sum(self.cycle_counts)

    @property
    def total_cycles(self):
        return self.unstalled_cycles + self.stall_cycles

    def instructions_by_source(self):
        """Figure 8 breakdown: dynamic instructions by (attribution, region).

        Returns a dict with the paper's four categories::

            {"app_fram": n, "app_sram": n, "handler": n, "memcpy": n}

        Startup instructions are folded into ``app_fram`` (they execute
        once from FRAM and are negligible).
        """
        breakdown = {"app_fram": 0, "app_sram": 0, "handler": 0, "memcpy": 0}
        for (attribution, region_kind), count in self.instructions.items():
            if attribution is Attribution.RUNTIME:
                breakdown["handler"] += count
            elif attribution is Attribution.MEMCPY:
                breakdown["memcpy"] += count
            elif region_kind is RegionKind.SRAM:
                breakdown["app_sram"] += count
            else:
                breakdown["app_fram"] += count
        return breakdown

    def snapshot(self):
        """Deep copy for before/after comparisons."""
        return AccessCounters().restore(self)

    def restore(self, snapshot):
        """Overwrite this object's tallies in place from *snapshot*.

        Mutating in place (rather than swapping the object or its
        lists) keeps every holder of this counters instance or of its
        tally lists -- the bus, an attached
        :class:`~repro.obs.timeline.Timeline`, metrics sessions --
        consistent across a restore.
        """
        self.access_counts[:] = snapshot.access_counts
        self.instruction_counts[:] = snapshot.instruction_counts
        self.cycle_counts[:] = snapshot.cycle_counts
        self.stall_cycles = snapshot.stall_cycles
        return self
