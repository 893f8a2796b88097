"""Linker: assign sections to memory regions and produce an image.

A :class:`MemoryPlan` says which physical region each logical section
(code, read-only data, mutable data + stack) goes to. The plans used in
the paper's experiments:

* ``unified``  -- everything in FRAM; SRAM left entirely free. This is
  the NVRAM unified-memory model (§2.2) and the baseline for most of
  the evaluation. The free SRAM is what SwapRAM turns into its cache.
* ``standard`` -- code in FRAM, data/stack in SRAM: the conventional
  flash-style configuration (Figure 1's "FRAM code / SRAM data" and the
  baseline of §5.5).
* ``code_sram`` / ``all_sram`` -- the remaining Figure 1 corners.
* split-SRAM -- ``standard`` plus ``sram_reserve_for_cache`` carving the
  rest of SRAM out for the software cache (§5.5 / Figure 10).

Capacity overruns raise :class:`FitError`: the paper's DNF outcome.
"""

from dataclasses import dataclass, field, replace

from repro.asm.assembler import SectionLayout, assemble
from repro.asm.ast import DataItem, Label
from repro.isa.encoding import instruction_length
from repro.isa.instructions import Instruction
from repro.machine.memory import fr2355_memory_map


class FitError(Exception):
    """The program does not fit the platform (the paper's DNF result)."""


#: The scaled evaluation platform. Benchmark inputs are scaled down
#: ~4-8x so runs finish under a Python interpreter, and the memories are
#: scaled by the same factor -- preserving the FR2355's 8:1 FRAM:SRAM
#: ratio (32 KiB : 4 KiB -> 8 KiB : 1 KiB), the fraction of FRAM the
#: binaries occupy, and therefore the paper's fit/DNF and cache-pressure
#: behaviour. Pass explicit sizes for full-scale FR2355 simulation.
EVAL_SRAM_BYTES = 0x400
EVAL_FRAM_BYTES = 0x2000


@dataclass(frozen=True)
class MemoryPlan:
    """Where each logical section lives. Values are 'fram' or 'sram'."""

    name: str
    text: str = "fram"
    rodata: str = "fram"
    data: str = "fram"
    stack_size: int = 0x100
    sram_size: int = EVAL_SRAM_BYTES
    fram_size: int = EVAL_FRAM_BYTES
    #: Bytes at the *end* of SRAM reserved for a software code cache.
    sram_reserve_for_cache: int = 0

    def with_cache_reserve(self, nbytes):
        return replace(self, sram_reserve_for_cache=nbytes)

    def scaled(self, sram_size, fram_size):
        return replace(self, sram_size=sram_size, fram_size=fram_size)


PLANS = {
    "unified": MemoryPlan("unified"),
    "standard": MemoryPlan("standard", data="sram"),
    "code_sram": MemoryPlan("code_sram", text="sram", rodata="fram", data="fram"),
    "all_sram": MemoryPlan("all_sram", text="sram", rodata="sram", data="sram"),
}


@dataclass
class LinkedProgram:
    """A linked image plus the placement facts downstream layers need."""

    image: object
    plan: MemoryPlan
    layout: SectionLayout
    stack_top: int
    cache_base: int  # first SRAM byte available as software cache
    cache_size: int
    memory_map: object
    section_sizes: dict
    #: The assembly-level program the image was built from. Kept so
    #: observability can recover exact per-function address ranges
    #: (symbol start + summed instruction lengths).
    program: object = field(default=None, repr=False)


def measure_sections(program):
    """Section sizes in bytes without assembling (deterministic lengths)."""
    sizes = {"text": 0, "rodata": 0, "data": 0, "bss": 0}
    for function in program.functions:
        size = sum(
            instruction_length(item)
            for item in function.items
            if isinstance(item, Instruction)
        )
        sizes["text"] += size + (size & 1)
    for section in program.sections:
        cursor = 0
        for item in program.sections.get(section, []):
            if isinstance(item, Label):
                continue
            if isinstance(item, DataItem):
                if item.kind == "word":
                    cursor += cursor & 1
                cursor += item.size()
        sizes[section] = cursor
    return sizes


def _align(value):
    return (value + 1) & ~1


def link(program, plan, extra_symbols=None):
    """Assign addresses per *plan*, assemble, and fit-check.

    Returns a :class:`LinkedProgram`. The software-cache area is
    whatever SRAM remains unallocated (all of it under ``unified``).
    """
    memory_map = fr2355_memory_map(sram_size=plan.sram_size, fram_size=plan.fram_size)
    sram = memory_map.sram
    fram = memory_map.fram
    sizes = measure_sections(program)

    cursors = {"fram": fram.start, "sram": sram.start}
    limits = {
        "fram": fram.end,
        "sram": sram.end - plan.sram_reserve_for_cache,
    }
    bases = {}
    for section in ("text", "rodata", "data", "bss"):
        region = plan.data if section in ("data", "bss") else getattr(plan, section)
        bases[section] = cursors[region]
        cursors[region] = _align(cursors[region] + sizes[section])

    # Extra sections (cache-system metadata and runtime areas) always go
    # to FRAM: the paper keeps both systems' metadata there (§4).
    extra_sections = sorted(
        name for name in sizes if name not in ("text", "rodata", "data", "bss")
    )
    for section in extra_sections:
        bases[section] = cursors["fram"]
        cursors["fram"] = _align(cursors["fram"] + sizes[section])

    # The stack lives after bss in the data region.
    data_region = plan.data
    stack_base = cursors[data_region]
    stack_top = stack_base + plan.stack_size
    cursors[data_region] = stack_top

    for region in ("fram", "sram"):
        if cursors[region] > limits[region]:
            raise FitError(
                f"plan {plan.name!r}: {region} overflow by "
                f"{cursors[region] - limits[region]} bytes "
                f"(used {cursors[region] - (fram.start if region == 'fram' else sram.start)})"
            )

    cache_base = cursors["sram"]
    cache_size = sram.end - cache_base

    layout = SectionLayout(
        text=bases["text"],
        rodata=bases["rodata"],
        data=bases["data"],
        bss=bases["bss"],
        **{section: bases[section] for section in extra_sections},
    )
    symbols = {"__stack_top": stack_top & 0xFFFE}
    symbols.update(extra_symbols or {})
    image = assemble(program, layout, extra_symbols=symbols)

    return LinkedProgram(
        image=image,
        plan=plan,
        layout=layout,
        stack_top=stack_top & 0xFFFE,
        cache_base=cache_base,
        cache_size=cache_size,
        memory_map=memory_map,
        section_sizes=sizes,
        program=program,
    )
