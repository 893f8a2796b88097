"""The memory bus: accounting, wait states, contention and debug ports.

Every CPU (and runtime) access flows through here. The bus

* categorises the access into :class:`AccessCounters` -- adding it to
  the flat tally itself, or through ``record_fetch``/``record_data``
  for counters that clear ``bus_tallies`` (the power fuses);
* models FRAM timing -- frequency-dependent wait states on hardware
  cache misses, plus a one-cycle contention penalty for each FRAM access
  after the first within a single instruction (the single-ported FRAM /
  cache bank conflict the paper blames for unified memory's slowdown
  even at 8 MHz, §2.2);
* implements the memory-mapped debug ports (UART stand-in + halt).

Writes to FRAM invalidate the matching hardware cache line (the
controller is write-through), which is what makes SwapRAM's in-place
call-site rewrites immediately visible to execution.
"""

from contextlib import contextmanager

from repro.machine.fram_cache import FramReadCache
from repro.machine.memory import (
    DEBUG_OUT_PORT,
    HALT_PORT,
    PUTC_PORT,
    RegionKind,
)
from repro.machine.trace import (
    READ,
    READ_BASE,
    REGIONS,
    WRITE,
    WRITE_BASE,
    AccessCounters,
    Attribution,
)


class BusError(Exception):
    """Unmapped or misaligned access."""


def default_wait_states(frequency_mhz):
    """FRAM wait states by CPU clock, per the paper's FR2355 description.

    Zero up to the FRAM's native 8 MHz; three cycles at the 24 MHz
    maximum operating point (§5.4); linear-ish in between.
    """
    if frequency_mhz <= 8:
        return 0
    if frequency_mhz <= 16:
        return 1
    return 3


class Bus:
    """Accounting memory bus for one simulated system."""

    def __init__(
        self,
        memory,
        memory_map,
        frequency_mhz=24,
        fram_cache=None,
        counters=None,
        wait_states=None,
        contention_penalty=1,
    ):
        self.memory = memory
        self.memory_map = memory_map
        self.frequency_mhz = frequency_mhz
        self.fram_cache = fram_cache if fram_cache is not None else FramReadCache()
        self.counters = counters if counters is not None else AccessCounters()
        self.wait_states = (
            default_wait_states(frequency_mhz) if wait_states is None else wait_states
        )
        self.contention_penalty = contention_penalty
        self.attribution = Attribution.APP
        self.halted = False
        self.debug_words = []
        self.output_chars = []
        self._kinds = memory_map._kinds
        self._fram_touches = 0
        #: Opt-in data-plane cache (see :mod:`repro.datacache`). When
        #: attached, application data accesses to FRAM addresses inside
        #: its window are delegated to the runtime, which performs its
        #: own exact accounting; runtime- and memcpy-attributed traffic
        #: (including the cache's own fills and writebacks) always takes
        #: the plain path below. ``None`` costs one comparison.
        self.data_cache = None
        #: The :class:`~repro.machine.board.Board` this bus is wired into
        #: (set by the board); bus-side observers subscribe through it.
        self.board = None

    # -- attribution -----------------------------------------------------------

    @contextmanager
    def attributed(self, attribution):
        """Temporarily attribute accesses to *attribution* (runtime hooks)."""
        previous = self.attribution
        self.attribution = attribution
        try:
            yield
        finally:
            self.attribution = previous

    # -- timing ------------------------------------------------------------------

    def begin_instruction(self):
        """Reset per-instruction contention state; called by the CPU."""
        self._fram_touches = 0

    def _fram_read_timing(self, address):
        if self._fram_touches:
            self.counters.stall_cycles += self.contention_penalty
        self._fram_touches += 1
        if not self.fram_cache.access(address):
            self.counters.stall_cycles += self.wait_states

    def _fram_write_timing(self, address):
        if self._fram_touches:
            self.counters.stall_cycles += self.contention_penalty
        self._fram_touches += 1
        self.counters.stall_cycles += self.wait_states
        self.fram_cache.invalidate(address)

    # -- instruction fetch -------------------------------------------------------

    def fetch_word(self, address):
        """Read one instruction word at *address*, fully accounted."""
        address &= 0xFFFF
        if address & 1:
            raise BusError(f"misaligned instruction fetch at {address:#06x}")
        kind = self._kinds[address]
        if kind is RegionKind.UNMAPPED or kind is RegionKind.MMIO:
            raise BusError(f"instruction fetch from {kind.value} at {address:#06x}")
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[self.attribution.slot * REGIONS + kind.slot] += 1
        else:
            counters.record_fetch(self.attribution, kind, 1)
        if kind is RegionKind.FRAM:
            self._fram_read_timing(address)
        return self.memory.read_word(address)

    def account_fetch(self, address, words):
        """Account a *words*-long fetch without re-reading (decode cache)."""
        kind = self._kinds[address & 0xFFFF]
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[
                self.attribution.slot * REGIONS + kind.slot
            ] += words
        else:
            counters.record_fetch(self.attribution, kind, words)
        if kind is RegionKind.FRAM:
            # _fram_read_timing for each word: every word after the
            # instruction's first FRAM touch contends.
            stall = self.contention_penalty * (words - (self._fram_touches == 0))
            self._fram_touches += words
            access = self.fram_cache.access
            for index in range(words):
                if not access(address + 2 * index):
                    stall += self.wait_states
            counters.stall_cycles += stall

    # -- data access ----------------------------------------------------------------

    def read(self, address, byte=False):
        """Accounted data read; returns byte or little-endian word."""
        address &= 0xFFFF
        if not byte and address & 1:
            raise BusError(f"misaligned word read at {address:#06x}")
        kind = self._kinds[address]
        if kind is RegionKind.UNMAPPED:
            raise BusError(f"read from unmapped address {address:#06x}")
        if (
            self.data_cache is not None
            and kind is RegionKind.FRAM
            and self.attribution is Attribution.APP
            and self.data_cache.covered[address]
        ):
            return self.data_cache.app_read(address, byte)
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[
                READ_BASE + self.attribution.slot * REGIONS + kind.slot
            ] += 1
        else:
            counters.record_data(self.attribution, kind, READ)
        if kind is RegionKind.MMIO:
            return 0
        if kind is RegionKind.FRAM:
            self._fram_read_timing(address)
        if byte:
            return self.memory.read_byte(address)
        return self.memory.read_word(address)

    def write(self, address, value, byte=False):
        """Accounted data write."""
        address &= 0xFFFF
        if not byte and address & 1:
            raise BusError(f"misaligned word write at {address:#06x}")
        kind = self._kinds[address]
        if kind is RegionKind.UNMAPPED:
            raise BusError(f"write to unmapped address {address:#06x}")
        if (
            self.data_cache is not None
            and kind is RegionKind.FRAM
            and self.attribution is Attribution.APP
            and self.data_cache.covered[address]
        ):
            self.data_cache.app_write(address, value, byte)
            return
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[
                WRITE_BASE + self.attribution.slot * REGIONS + kind.slot
            ] += 1
        else:
            counters.record_data(self.attribution, kind, WRITE)
        if kind is RegionKind.MMIO:
            self._mmio_write(address, value)
            return
        if kind is RegionKind.FRAM:
            self._fram_write_timing(address)
        if byte:
            self.memory.write_byte(address, value)
        else:
            self.memory.write_word(address, value)

    # -- the data-cache bypass path ------------------------------------------------

    def fram_read_direct(self, address, byte=False):
        """The plain FRAM data-read path, callable by the data cache.

        Identical accounting to an uncached :meth:`read` of a FRAM
        address -- used for bypasses (sequential cutoff, promotion
        deferrals) so a bypassed access costs exactly what the access
        would have cost with no data cache attached.
        """
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[
                READ_BASE + self.attribution.slot * REGIONS + RegionKind.FRAM.slot
            ] += 1
        else:
            counters.record_data(self.attribution, RegionKind.FRAM, READ)
        self._fram_read_timing(address)
        if byte:
            return self.memory.read_byte(address)
        return self.memory.read_word(address)

    def fram_write_direct(self, address, value, byte=False):
        """The plain FRAM data-write path, callable by the data cache."""
        counters = self.counters
        if counters.bus_tallies:
            counters.access_counts[
                WRITE_BASE + self.attribution.slot * REGIONS + RegionKind.FRAM.slot
            ] += 1
        else:
            counters.record_data(self.attribution, RegionKind.FRAM, WRITE)
        self._fram_write_timing(address)
        if byte:
            self.memory.write_byte(address, value)
        else:
            self.memory.write_word(address, value)

    def _mmio_write(self, address, value):
        if address == DEBUG_OUT_PORT:
            self.debug_words.append(value & 0xFFFF)
        elif address == HALT_PORT:
            # The data-cache runtime flushes dirty lines on a clean
            # shutdown -- this is the write-back mode's durability
            # point, and the halt store is the one place both run paths
            # (board.run and the fault harness's cpu.run) pass through.
            if self.data_cache is not None:
                self.data_cache.on_halt()
            self.halted = True
        elif address == PUTC_PORT:
            self.output_chars.append(chr(value & 0xFF))

    # -- checkpointing and power cycling (fault injection) ------------------------

    def snapshot(self):
        """Bus-held machine/observation state (counters are the Board's)."""
        return {
            "halted": self.halted,
            "debug_words": list(self.debug_words),
            "output_chars": list(self.output_chars),
            "attribution": self.attribution,
            "fram_touches": self._fram_touches,
            "fram_cache": self.fram_cache.snapshot(),
            "data_cache": (
                self.data_cache.snapshot() if self.data_cache is not None else None
            ),
        }

    def restore(self, snapshot):
        """In-place restore; list objects are kept so holders stay live."""
        self.halted = snapshot["halted"]
        self.debug_words[:] = snapshot["debug_words"]
        self.output_chars[:] = snapshot["output_chars"]
        self.attribution = snapshot["attribution"]
        self._fram_touches = snapshot["fram_touches"]
        self.fram_cache.restore(snapshot["fram_cache"])
        if self.data_cache is not None and snapshot.get("data_cache") is not None:
            self.data_cache.restore(snapshot["data_cache"])
        return self

    def power_reset(self):
        """Volatile bus state after a power failure.

        The hardware FRAM read cache loses its lines (SRAM cells) but
        keeps its host-side hit/miss tallies -- those are accounting, not
        machine state. The debug/output logs also survive: they model
        what an attached host observed over the whole multi-boot
        experiment, and callers slice them per boot.
        """
        self.halted = False
        self.attribution = Attribution.APP
        self._fram_touches = 0
        self.fram_cache.invalidate()
        if self.data_cache is not None:
            # Dirty lines die with the SRAM that held them; the runtime
            # records exactly which FRAM bytes lost their writes so the
            # fault harness's audit can name them.
            self.data_cache.power_reset()
        return self

    @property
    def output_text(self):
        return "".join(self.output_chars)
