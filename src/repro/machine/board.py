"""Board abstraction: one simulated MSP430FR2355-style system.

A :class:`Board` wires memory, bus, CPU and energy model together at a
chosen clock frequency, loads an assembled image, runs it to the halt
port, and produces a :class:`RunResult` with every quantity the paper's
evaluation reports: FRAM/SRAM access counts, unstalled and total cycles,
wall-clock time at the configured frequency, and modelled energy.
"""

from dataclasses import dataclass, field

from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.energy import EnergyModel
from repro.machine.memory import Memory, RegionKind, fr2355_memory_map
from repro.machine.power import scrambled_bytes
from repro.machine.trace import AccessCounters
from repro.isa.registers import PC, SP


@dataclass
class RunResult:
    """Everything measured over one benchmark run."""

    frequency_mhz: float
    unstalled_cycles: int
    stall_cycles: int
    fram_accesses: int
    sram_accesses: int
    code_accesses: int
    data_accesses: int
    instructions: int
    instruction_breakdown: dict
    energy_nj: float
    debug_words: list
    output_text: str
    counters: AccessCounters = field(repr=False, default=None)

    @property
    def total_cycles(self):
        return self.unstalled_cycles + self.stall_cycles

    @property
    def runtime_us(self):
        """Wall-clock microseconds at the configured frequency."""
        return self.total_cycles / self.frequency_mhz

    @property
    def code_data_ratio(self):
        return self.code_accesses / self.data_accesses if self.data_accesses else 0.0

    def as_dict(self):
        """Plain-data view for reports, traces and the difftest runner."""
        return {
            "frequency_mhz": self.frequency_mhz,
            "instructions": self.instructions,
            "unstalled_cycles": self.unstalled_cycles,
            "stall_cycles": self.stall_cycles,
            "total_cycles": self.total_cycles,
            "fram_accesses": self.fram_accesses,
            "sram_accesses": self.sram_accesses,
            "code_accesses": self.code_accesses,
            "data_accesses": self.data_accesses,
            "code_data_ratio": self.code_data_ratio,
            "runtime_us": self.runtime_us,
            "energy_nj": self.energy_nj,
            "instruction_breakdown": dict(self.instruction_breakdown),
            "debug_words": list(self.debug_words),
            "output_text": self.output_text,
        }


@dataclass
class BoardSnapshot:
    """A full machine checkpoint (memory + CPU + bus + accounting).

    Cheap: one 64 KiB bytes object plus a few small copies. Restoring
    mutates the live objects in place, so anything holding references
    into the board (timelines, metrics sessions, runtimes) stays
    attached and consistent.
    """

    memory: bytes
    cpu: dict
    bus: dict
    counters: AccessCounters


class Board:
    """A complete simulated system (CPU + memory + accounting)."""

    def __init__(
        self,
        memory_map=None,
        frequency_mhz=24,
        energy_model=None,
        wait_states=None,
        counters=None,
    ):
        self.memory_map = memory_map or fr2355_memory_map()
        self.frequency_mhz = frequency_mhz
        self.energy_model = energy_model or EnergyModel()
        self.memory = Memory()
        self.counters = counters if counters is not None else AccessCounters()
        self.bus = Bus(
            self.memory,
            self.memory_map,
            frequency_mhz=frequency_mhz,
            counters=self.counters,
            wait_states=wait_states,
        )
        self.cpu = Cpu(self.bus)
        self.image = None
        #: Subscribers of the observation seam (:mod:`repro.machine.observe`).
        self.observers = []
        #: The subscribers' ``on_event`` handler, or ``None``.
        self.emit = None
        #: The subscribers' handlers by entry-point name, but ``on_event``.
        self.handlers = {}
        self.bus.board = self

    # -- setup -----------------------------------------------------------------

    def load(self, image, stack_top=None):
        """Load an assembled image and point the CPU at its entry.

        The stack grows down from *stack_top*; the toolchain's generated
        startup code normally sets SP itself, so this default only
        matters for hand-built test images.
        """
        self.image = image
        image.load_into(self.memory)
        self.cpu.regs[PC] = image.entry
        if stack_top is not None:
            self.cpu.regs[SP] = stack_top & 0xFFFE
        return self

    def add_hook(self, address, handler):
        """Install a native hook at *address* (see ``machine.cpu``)."""
        self.cpu.hooks[address & 0xFFFF] = handler

    # -- execution ----------------------------------------------------------------

    def run(self, max_instructions=50_000_000):
        """Run to the halt port and return a :class:`RunResult`."""
        self.cpu.run(max_instructions=max_instructions)
        return self.result()

    def result(self):
        counters = self.counters
        return RunResult(
            frequency_mhz=self.frequency_mhz,
            unstalled_cycles=counters.unstalled_cycles,
            stall_cycles=counters.stall_cycles,
            fram_accesses=counters.fram_accesses,
            sram_accesses=counters.sram_accesses,
            code_accesses=counters.code_accesses,
            data_accesses=counters.data_accesses,
            instructions=counters.total_instructions,
            instruction_breakdown=counters.instructions_by_source(),
            energy_nj=self.energy_model.energy_nj(counters),
            debug_words=list(self.bus.debug_words),
            output_text=self.bus.output_text,
            counters=counters,
        )

    # -- checkpointing and power cycling (fault injection) -----------------------

    def snapshot(self):
        """Capture the complete machine state as a :class:`BoardSnapshot`."""
        return BoardSnapshot(
            memory=self.memory.snapshot(),
            cpu=self.cpu.snapshot(),
            bus=self.bus.snapshot(),
            counters=self.counters.snapshot(),
        )

    def restore(self, snap):
        """Restore a :class:`BoardSnapshot` in place.

        Every component object (memory buffer, register list, counters,
        debug logs) is mutated rather than replaced, so attached
        observers -- an obs timeline stamped from these counters, a
        metrics registry on the runtime -- survive the restore and see
        exactly the snapshotted totals.
        """
        self.memory.restore(snap.memory)
        self.cpu.restore(snap.cpu)
        self.bus.restore(snap.bus)
        self.counters.restore(snap.counters)
        return self

    def power_cycle(self, seed=0):
        """Model a power failure followed by a reboot.

        FRAM regions persist verbatim (that is the point of NVRAM); SRAM
        regions wake to deterministic seeded garbage -- not zeros, which
        would be a kinder machine than the real one; the CPU resets to
        the image's entry vector. Accounting (cycles, accesses, energy,
        debug output) continues across the cycle: it models the host-side
        measurement rig, which never lost power.
        """
        if self.image is None:
            raise RuntimeError("power_cycle() requires a loaded image")
        for region in self.memory_map.regions:
            if region.kind is RegionKind.SRAM:
                self.memory.write_bytes(
                    region.start,
                    scrambled_bytes(f"{seed}:{region.name}", region.size),
                )
        self.cpu.reset(self.image.entry)
        self.bus.power_reset()
        return self

    # -- inspection helpers ----------------------------------------------------------

    def word_at(self, symbol_or_address):
        """Peek a word by symbol name (requires a loaded image) or address."""
        return self.memory.read_word(self._resolve(symbol_or_address))

    def bytes_at(self, symbol_or_address, length):
        return self.memory.read_bytes(self._resolve(symbol_or_address), length)

    def _resolve(self, symbol_or_address):
        if isinstance(symbol_or_address, str):
            return self.image.symbols[symbol_or_address]
        return symbol_or_address


def fr2355_board(frequency_mhz=24, sram_size=0x1000, fram_size=0x8000, **kwargs):
    """Convenience constructor matching the paper's evaluation platform."""
    return Board(
        memory_map=fr2355_memory_map(sram_size=sram_size, fram_size=fram_size),
        frequency_mhz=frequency_mhz,
        **kwargs,
    )
