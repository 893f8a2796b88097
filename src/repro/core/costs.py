"""Cycle/fetch cost model for the hosted cache runtimes.

The paper's runtimes are C+assembly executing from FRAM; ours run
host-side (see DESIGN.md). To keep every reported quantity honest, each
modelled runtime instruction is *charged*: one or two instruction-word
fetches at real FRAM addresses inside the reserved runtime area (so the
hardware FRAM cache and wait-state machinery see them), plus unstalled
cycles, plus a dynamic-instruction count under the right attribution
(Figure 8's "miss handler" and "memcpy" categories).

Instruction-count constants approximate the MSP430 code each phase
would compile to; handler *size* constants are calibrated to the
paper's reported range (972-1844 bytes, average 1378 -- §5.2).
"""

from dataclasses import dataclass

from repro.machine.trace import Attribution


@dataclass(frozen=True)
class RuntimeCostModel:
    """Tunable constants for the SwapRAM runtime's modelled costs."""

    # Dynamic instruction counts per handler phase.
    entry_instructions: int = 10  # save args, load funcId, functab lookup
    decision_instructions: int = 6  # placement decision
    scan_instructions_per_node: int = 3  # queue walk per node inspected
    active_check_instructions: int = 3  # per flagged victim
    evict_instructions: int = 10  # per evicted function (metadata reset)
    reloc_instructions: int = 5  # per relocation entry written
    exit_instructions: int = 6  # restore args, branch out
    # Copy loop: MOV @Rs+, 0(Rd); ADD #2, Rd; DEC Rn; JNZ -- about nine
    # cycles per word, modelled as three average instructions.
    memcpy_instructions_per_word: int = 3
    memcpy_setup_instructions: int = 6

    # Average unstalled cycles per modelled instruction (mem-heavy code).
    cycles_per_instruction: int = 3

    # Static size model (bytes) for Figure 7's Runtime bar.
    handler_base_bytes: int = 900
    handler_bytes_per_reloc: int = 12
    memcpy_bytes: int = 64

    def handler_size(self, total_relocs):
        """Miss-handler code size: grows with relocatable branches (§5.2)."""
        return self.handler_base_bytes + self.handler_bytes_per_reloc * total_relocs


@dataclass(frozen=True)
class DataCacheCostModel:
    """Tunable constants for the data-plane cache runtime's costs.

    Hits are free of instruction overhead: the lookup is modelled as
    compiler-assisted region remapping (the access already addresses
    the SRAM line), so a hit is exactly one SRAM access -- the same
    assumption SwapRAM makes for code hits once the redirection entry
    points into SRAM. Everything else -- the miss path, the line-copy
    loops, the cleaning walk -- is charged instruction by instruction
    at real FRAM addresses inside the runtime's reserved area.
    """

    lookup_instructions: int = 0  # compiler-assisted remapping (see above)
    miss_instructions: int = 8  # tag probe, victim choice, bookkeeping
    writeback_instructions: int = 4  # per line written back (setup)
    clean_instructions: int = 4  # per cleaning-policy activation
    bypass_instructions: int = 1  # sequential-cutoff / promotion gate
    memcpy_setup_instructions: int = 4
    memcpy_instructions_per_word: int = 3  # same loop shape as SwapRAM's

    cycles_per_instruction: int = 3

    # Static size model (bytes) for the reserved FRAM runtime area.
    handler_bytes: int = 512
    memcpy_bytes: int = 64


class CostCharger:
    """Charges modelled instructions against the bus at real addresses."""

    def __init__(self, bus, area_base, area_bytes, cycles_per_instruction):
        self.bus = bus
        self.area_base = area_base
        self.area_words = max(area_bytes // 2, 1)
        self.cycles_per_instruction = cycles_per_instruction
        self._cursor = 0

    def begin_invocation(self):
        """Restart at the area base: each handler invocation re-executes
        the same code path, so repeated invocations touch the same FRAM
        addresses and benefit from the hardware read cache exactly as the
        real handler would."""
        self._cursor = 0

    def charge(self, instructions, attribution=Attribution.RUNTIME):
        """Charge *instructions* modelled instructions (fetches + cycles).

        Each one goes through the bus's instance seams, in the CPU's
        order: ``begin_instruction``, ``account_fetch`` under
        *attribution*, then ``record_instruction``. The attribution is
        swapped by hand rather than with :meth:`Bus.attributed`, whose
        generator is most of a charged instruction's host cost.
        """
        bus = self.bus
        begin = bus.begin_instruction
        account = bus.account_fetch
        record = bus.counters.record_instruction
        region_kind = bus.memory_map.kind_at(self.area_base)
        area_base = self.area_base
        area_words = self.area_words
        cycles = self.cycles_per_instruction
        cursor = self._cursor
        previous = bus.attribution
        try:
            for index in range(instructions):
                begin()
                # Alternate 1- and 2-word instructions (realistic mix).
                words = 1 + (index & 1)
                bus.attribution = attribution
                account(area_base + 2 * (cursor % area_words), words)
                bus.attribution = previous
                cursor += words
                record(attribution, region_kind, cycles)
        finally:
            bus.attribution = previous
            self._cursor = cursor
