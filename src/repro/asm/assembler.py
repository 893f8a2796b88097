"""Two-pass assembler: :class:`Program` -> loadable :class:`Image`.

Pass one lays out every function, label and data item at concrete byte
addresses (instruction lengths are deterministic before symbol
resolution); pass two encodes instructions against the completed symbol
table. The resulting :class:`Image` knows each function's final address
and size -- exactly the information SwapRAM's second compile stage needs
to build its metadata tables (paper §4).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.asm.ast import DATA_SECTIONS, DataItem, Label, Program
from repro.isa.encoding import EncodingError, encode_instruction, instruction_length
from repro.isa.instructions import Instruction
from repro.isa.operands import resolve_value


class AssemblyError(ValueError):
    """Raised for duplicate/undefined symbols, range or overlap errors."""


class SectionLayout:
    """Base byte address for each section (extra sections allowed).

    The linker (``repro.toolchain``) computes layouts from a memory
    configuration; tests may hand-build them. Extra keyword arguments
    define bases for custom sections (e.g. SwapRAM's metadata tables).
    """

    def __init__(self, text, rodata=None, data=None, bss=None, **extra):
        self.bases = {"text": text, "rodata": rodata, "data": data, "bss": bss}
        self.bases.update(extra)

    def base(self, section):
        value = self.bases.get(section)
        if value is None:
            raise AssemblyError(f"no base address for section {section!r}")
        return value


@dataclass
class FunctionInfo:
    """Where a function landed: ``[address, address + size)``."""

    name: str
    address: int
    size: int
    blacklisted: bool = False
    is_library: bool = False

    @property
    def end(self):
        return self.address + self.size


@dataclass
class Image:
    """An assembled program: bytes at addresses plus symbol metadata."""

    symbols: Dict[str, int]
    functions: Dict[str, FunctionInfo]
    chunks: List[Tuple[int, bytes]]
    section_extents: Dict[str, Tuple[int, int]]
    entry: int
    program: Program = field(repr=False, default=None)

    def load_into(self, memory):
        """Write all loadable chunks into *memory* (anything with write_bytes)."""
        for address, data in self.chunks:
            memory.write_bytes(address, data)

    def function_at(self, address):
        """Return the FunctionInfo containing byte *address*, or None."""
        for info in self.functions.values():
            if info.address <= address < info.end:
                return info
        return None

    def total_code_size(self):
        """Total bytes of text (application + any generated stubs)."""
        base, size = self.section_extents["text"]
        return size


def _align(value, alignment=2):
    return (value + alignment - 1) & ~(alignment - 1)


def _layout_text(program, base, symbols, functions):
    """Assign addresses to every function, label and instruction."""
    cursor = base
    instruction_addresses = {}
    for function in program.functions:
        cursor = _align(cursor)
        start = cursor
        _define(symbols, function.name, cursor)
        for index, item in enumerate(function.items):
            if isinstance(item, Label):
                _define(symbols, item.name, cursor)
            elif isinstance(item, Instruction):
                instruction_addresses[(function.name, index)] = cursor
                cursor += instruction_length(item)
        functions[function.name] = FunctionInfo(
            function.name,
            start,
            cursor - start,
            blacklisted=function.blacklisted,
            is_library=function.is_library,
        )
    return cursor, instruction_addresses


def _layout_data(items, base, symbols):
    """Assign addresses to data-section labels and items."""
    cursor = base
    placed = []
    for item in items:
        if isinstance(item, Label):
            if any(
                isinstance(peek, DataItem) and peek.kind == "word"
                for peek in _next_items(items, item)
            ):
                cursor = _align(cursor)
            _define(symbols, item.name, cursor)
        elif isinstance(item, DataItem):
            if item.kind == "word":
                cursor = _align(cursor)
            placed.append((cursor, item))
            cursor += item.size()
    return cursor, placed


def _next_items(items, label):
    """The single item following *label*, if any (for alignment lookahead)."""
    index = items.index(label)
    return items[index + 1 : index + 2]


def _define(symbols, name, address):
    if name in symbols:
        raise AssemblyError(f"duplicate symbol: {name}")
    symbols[name] = address & 0xFFFF


def _encode_data(placed, symbols):
    """Encode placed data items into (address, bytes) chunks."""
    chunks = []
    for address, item in placed:
        if item.kind == "space":
            chunks.append((address, bytes(item.size())))
            continue
        blob = bytearray()
        for value in item.values:
            resolved = resolve_value(value, symbols)
            if item.kind == "word":
                blob += resolved.to_bytes(2, "little")
            else:
                blob.append(resolved & 0xFF)
        chunks.append((address, bytes(blob)))
    return chunks


def assemble(program, layout, extra_symbols=None):
    """Assemble *program* with section bases from *layout*.

    *extra_symbols* lets the toolchain inject absolute addresses (I/O
    ports, runtime entry points) referenced by name from the assembly.
    """
    symbols = dict(extra_symbols or {})
    functions = {}
    section_extents = {}

    text_base = layout.base("text")
    text_end, instruction_addresses = _layout_text(
        program, text_base, symbols, functions
    )
    section_extents["text"] = (text_base, text_end - text_base)

    placed_data = {}
    data_section_names = list(DATA_SECTIONS) + sorted(
        name for name in program.sections if name not in DATA_SECTIONS
    )
    for section in data_section_names:
        items = program.sections.get(section) or []
        if not items:
            section_extents[section] = (0, 0)
            continue
        base = layout.base(section)
        end, placed = _layout_data(items, base, symbols)
        placed_data[section] = placed
        section_extents[section] = (base, end - base)

    _check_overlaps(section_extents)

    # Pass two: encode text.
    text_blob = bytearray(text_end - text_base)
    for function in program.functions:
        for index, item in enumerate(function.items):
            if not isinstance(item, Instruction):
                continue
            address = instruction_addresses[(function.name, index)]
            try:
                words = encode_instruction(item, address, symbols)
            except (EncodingError, KeyError) as error:
                raise AssemblyError(
                    f"in {function.name} at {address:#06x}: {item}: {error}"
                ) from error
            offset = address - text_base
            for word in words:
                text_blob[offset : offset + 2] = word.to_bytes(2, "little")
                offset += 2

    chunks = [(text_base, bytes(text_blob))] if text_blob else []
    for placed in placed_data.values():
        # BSS included: emitting its zeros makes reloads deterministic.
        chunks.extend(_encode_data(placed, symbols))

    if program.entry not in symbols:
        raise AssemblyError(f"entry point {program.entry!r} is undefined")

    return Image(
        symbols=symbols,
        functions=functions,
        chunks=chunks,
        section_extents=section_extents,
        entry=symbols[program.entry],
        program=program,
    )


def _check_overlaps(extents):
    """Fail when any two non-empty sections overlap."""
    spans = [
        (base, base + size, name)
        for name, (base, size) in extents.items()
        if size > 0
    ]
    spans.sort()
    for (start_a, end_a, name_a), (start_b, end_b, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise AssemblyError(
                f"sections overlap: {name_a} [{start_a:#06x},{end_a:#06x}) and "
                f"{name_b} [{start_b:#06x},{end_b:#06x})"
            )
