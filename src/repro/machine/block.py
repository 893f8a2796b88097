"""Block-compiled execution: the fast path of :meth:`Cpu.run`.

:meth:`~repro.machine.cpu.Cpu.step` pays a hook lookup, a decode-cache
lookup, a byte compare, a fetch-accounting call and an executor's
operand plumbing for every guest instruction. :func:`run_blocks` runs
the same instructions in *blocks*: straight-line code from an entry pc
up to and including the next control transfer. A block stops early
before a hook address, a change of memory region or a word it cannot
fetch or decode, and after :data:`MAX_BLOCK` instructions; whatever no
block covers runs through ``Cpu.step``.

Each instruction of a block is one closure specialised to its *shape*
-- mnemonic, byte flag, source and destination modes, fetch region,
whether a data cache is attached -- with its registers and constants
bound in. The closure factories (templates) are generated from the
snippets below once per process, one per shape on first use.
Instructions no template covers (DADD, RETI, CALL, operands that read
the PC, unary operations on memory) run the step loop's own executor.

Building a block pays for each distinct encoding once per process, not
once per address per board. :data:`_ENCODINGS`, keyed by the code bytes
(and the pc too for an encoding that reads it: a jump, a symbolic
operand), holds the decoded instruction, its cycles and everything its
closure needs that does not depend on the address or the board. Each
template is two factories deep: a board's environment binds the outer
one once per shape, and compiling an instruction at an address only
passes the encoding's constants, its pc, region and FRAM fetch lines
to the inner one. A board keeps its closures by address and bytes, so
code that comes back to an address is bound once per board. The step
loop never reads the table; it stays the independent reference.

What stays exact, and how:

* Code bytes. A block snapshots its bytes and runs only while they
  match memory. An instruction that may write memory (a memory
  destination, PUSH, a step-loop executor) reports it, and the block
  then stops if the halt port was written or its bytes changed -- a
  store that rewrites a later instruction of the running block. A load
  writes memory only through a data cache: its fills write the line
  store, and in write-back mode its writebacks and cleaning write the
  window's lines in FRAM. No block covers those bytes (the runtime's
  ``load_writes``): code there runs on the step loop, so loads never
  re-check a block's bytes.
* Accesses, in order. SRAM data accesses run inline, and so do aligned
  FRAM word and any FRAM byte accesses: the tally, the FRAM touch
  count's contention, the FRAM read cache's LRU update with its counts
  and wait states on a read, and the wait states and line invalidation
  on a write, as ``Bus.read``/``Bus.write`` and
  :class:`~repro.machine.fram_cache.FramReadCache` do them. While a data
  cache is attached, such an access to an address it covers calls the
  runtime's ``app_read``/``app_write`` instead, as the bus hands over an
  application access (blocks run only under the application's
  attribution). Every other access (misaligned, MMIO, unmapped) goes
  through ``bus.read``/``bus.write``. A FRAM-resident instruction sets
  the FRAM touch count its fetch leaves and looks up the FRAM read
  cache once per line, in order with its data accesses: a line most
  recently used in its set is a hit with no LRU change, and any other
  line takes the same inline LRU update as a data read.
* Tallies, at every exit. Fetch words, instruction and cycle counts,
  fetch contention and the FRAM cache's fetch hits are summed per block
  and added when it exits; an early exit or an exception adds the
  prefix that ran and leaves the PC, ``pc_history`` and
  ``instructions_retired`` where the step loop would have.
* The instruction budget. A block is entered only if it cannot use up
  the budget, so :class:`RunawayError` comes from the same retired
  count as in the step loop.
* Event stamps. A data cache reports its events from inside an
  instruction's data access, stamped from the counters. So while a
  data cache is attached and ``board.emit`` is set, each instruction
  that may access memory records its pc, and :func:`run_blocks` wraps
  ``board.emit`` to add the running block's tallies up to that
  instruction's fetch -- what the step loop shows while it executes it
  -- for as long as an event is emitted.
* Observers (:mod:`repro.machine.observe`). Blocks are compiled for the
  board's subscribers. ``on_block`` runs before each block, hook and
  step, and a block also ends after an instruction that may raise SP,
  so the handler sees every change of function and every return where
  the counters are exact. While ``on_fetch`` or ``on_retire`` is
  handled, each instruction calls it with its static pc and words or
  cycles, and while ``on_read`` or ``on_write`` is, each data access
  calls it before the access itself, SRAM or not (the bus a block
  calls is the one below the seam). The handlers then see the step
  loop's calls, with its arguments and in its order. Only fuses and the
  cycle watchdog (``bus_tallies`` cleared) keep a run on the step loop.
"""

from collections import namedtuple
from functools import partial

from repro.isa.cycles import instruction_cycles
from repro.isa.encoding import EncodingError, decode_instruction
from repro.isa.instructions import FORMAT_I_OPCODES, JUMP_CONDITIONS, NO_WRITEBACK
from repro.isa.operands import MEMORY_MODES, AddressingMode
from repro.isa.registers import PC, SP
from repro.machine.bus import BusError
from repro.machine.cpu import _EXECUTORS, _JUMP_TAKEN, RunawayError, SimulationError
from repro.machine.memory import RegionKind
from repro.machine.trace import READ_BASE, WRITE_BASE, Attribution, instruction_slot

#: Longest block, in instructions.
MAX_BLOCK = 64

_APP = Attribution.APP
_SRAM = RegionKind.SRAM
_FRAM = RegionKind.FRAM
_READ_SRAM = READ_BASE + instruction_slot(_APP, _SRAM)
_WRITE_SRAM = WRITE_BASE + instruction_slot(_APP, _SRAM)
_READ_FRAM = READ_BASE + instruction_slot(_APP, _FRAM)
_WRITE_FRAM = WRITE_BASE + instruction_slot(_APP, _FRAM)

_MODES = {
    AddressingMode.REGISTER: "reg",
    AddressingMode.IMMEDIATE: "imm",
    AddressingMode.INDEXED: "idx",
    AddressingMode.SYMBOLIC: "abs",
    AddressingMode.ABSOLUTE: "abs",
    AddressingMode.INDIRECT: "ind",
    AddressingMode.AUTOINC: "inc",
}
_UNARY = frozenset({"RRA", "RRC", "SWPB", "SXT"})

# -- templates ------------------------------------------------------------------
#
# A template is two factories deep. The outer one takes the run
# environment, bound once per shape per environment: ``regs``, ``bus``,
# ``data``, ``kinds``, ``counts``, ``read``, ``write`` (the bus's, below
# the seam), ``COUNTERS``, ``CACHE`` (the FRAM read cache) with its
# geometry ``LINES``/``SETS``/``SHIFT``/``ASSOC`` (per-set tag lists, set
# count, line-size shift, ways), ``WAIT``/``PENALTY`` (FRAM wait states,
# contention penalty), ``COVERED``/``APP_READ``/``APP_WRITE`` (the data
# cache runtime's ``covered`` table, ``app_read`` and ``app_write``, or
# ``None`` with no data cache attached), ``ON_FETCH``/``ON_READ``/
# ``ON_WRITE``/``ON_RETIRE`` (the seam's handlers), ``ENV`` and ``cpu``.
# The inner one takes one instruction's constants, in the order of
# :data:`_ENCODED` and :data:`_PLACED`: from its encoding
# ``S``/``X``/``K``/``STEP`` (source register, displacement or address,
# immediate, autoincrement step), ``D``/``Y`` (destination register,
# displacement or address), ``TARGET``/``TAKEN`` (jumps),
# ``W``/``CYCLES`` (words and cycles) and ``ins``/``execute`` (the step
# loop's executor); from its address ``NEXT``/``AT``/``KIND`` (the next
# pc, its pc and region) and ``WAYS<i>``/``TAG<i>`` (a FRAM fetch's
# lines). A closure keeps only the names its body uses.

_ENVIRONMENT = (
    "regs bus data kinds counts read write COUNTERS CACHE LINES SETS SHIFT ASSOC WAIT "
    "PENALTY COVERED APP_READ APP_WRITE ON_FETCH ON_READ ON_WRITE ON_RETIRE ENV cpu"
).split()
_ENCODED = "S X K STEP D Y TARGET TAKEN W CYCLES ins execute".split()
_PLACED = "NEXT AT KIND WAYS0 TAG0 WAYS1 TAG1 WAYS2 TAG2".split()

#: Which access handlers a block's instructions call (see
#: :mod:`repro.machine.observe`).
_Watch = namedtuple("_Watch", "fetch read write retire")

_TEMPLATES = {}


def _load(value, address, byte, watch, covered):
    """Read *address* into *value*: SRAM and FRAM inline, a FRAM address
    the data cache covers (if *covered*) by its runtime, anything else
    by the bus; after the ``on_read`` handler if *watch* says it is
    handled."""
    lines = [f"ON_READ({address}, {byte})"] if watch.read else []
    get = f"{value} = data[{address}]"
    if not byte:
        get += f" | (data[{address} + 1] << 8)"
    fram = [
        f"counts[{_READ_FRAM}] += 1",
        *_touch(address, "if n:", "    COUNTERS.stall_cycles += PENALTY"),
        "if g in w:",
        "    if w[-1] != g:",
        "        w.remove(g)",
        "        w.append(g)",
        "    CACHE.hits += 1",
        "else:",
        *_indent(_miss("g", "w")),
        get,
    ]
    if covered:
        fram = _cover(address, f"{value} = APP_READ({address}, {byte})", fram)
    return lines + _dispatch(
        address,
        byte,
        fram,
        [f"counts[{_READ_SRAM}] += 1", get],
        f"{value} = read({address}, {byte})",
    )


def _store(address, value, byte, watch, covered):
    """Write *value* to *address*: SRAM and FRAM inline, a FRAM address
    the data cache covers (if *covered*) by its runtime, anything else
    by the bus; after the ``on_write`` handler if *watch* says it is
    handled."""
    lines = [f"ON_WRITE({address}, {value}, {byte})"] if watch.write else []
    if byte:
        put = [f"data[{address}] = {value}"]
    else:
        put = [
            f"data[{address}] = {value} & 0xFF",
            f"data[{address} + 1] = {value} >> 8",
        ]
    fram = [
        f"counts[{_WRITE_FRAM}] += 1",
        *_touch(address, "COUNTERS.stall_cycles += WAIT + PENALTY if n else WAIT"),
        "if g in w:",
        "    w.remove(g)",
        "    CACHE.invalidates += 1",
        *put,
    ]
    if covered:
        fram = _cover(address, f"APP_WRITE({address}, {value}, {byte})", fram)
    return lines + _dispatch(
        address,
        byte,
        fram,
        [f"counts[{_WRITE_SRAM}] += 1", *put],
        f"write({address}, {value}, {byte})",
    )


def _cover(address, runtime, fram):
    """The *runtime* line for a FRAM *address* the data cache covers,
    the uncovered *fram* lines for any other, as ``Bus.read``/``Bus.write``
    route an application access."""
    return [f"if COVERED[{address}]:", "    " + runtime, "else:", *_indent(fram)]


def _dispatch(address, byte, fram, sram, other):
    """Run the *fram* lines for an application FRAM access, the *sram*
    lines for an SRAM one, and *other* for anything else: misaligned,
    MMIO or unmapped."""
    aligned = "" if byte else f" and not {address} & 1"
    return [
        f"k = kinds[{address}]",
        f"if k is FRAM{aligned}:",
        *_indent(fram),
        f"elif k is SRAM{aligned}:",
        *_indent(sram),
        "else:",
        "    " + other,
    ]


def _touch(address, *stall):
    """``Bus._fram_*_timing`` up to the FRAM read cache: the *stall*
    lines charge it from ``n``, the FRAM touches before this one; leaves
    the line's tag in ``g`` and its set in ``w``."""
    return [
        "n = bus._fram_touches",
        "bus._fram_touches = n + 1",
        *stall,
        f"g = {address} >> SHIFT",
        "w = LINES[g % SETS]",
    ]


def _miss(tag, ways):
    """A FRAM read cache miss on line *tag* of set *ways*: fill it,
    evicting the least recently used line, and pay the wait states."""
    return [
        "CACHE.misses += 1",
        f"{ways}.append({tag})",
        f"if len({ways}) > ASSOC:",
        f"    del {ways}[0]",
        "COUNTERS.stall_cycles += WAIT",
    ]


def _indent(lines):
    return ["    " + line for line in lines]


def _write_register(value):
    return [f"regs[D] = {value}"]


def _source(mode, byte, watch, covered):
    """Evaluate the source operand into ``s``, as ``Cpu._read_source``."""
    if mode == "reg":
        return [f"s = regs[S] & {0xFF if byte else 0xFFFF:#x}"]
    if mode == "imm":
        return ["s = K"]
    address = {
        "idx": "(regs[S] + X) & 0xFFFF",
        "abs": "X",
        "ind": "regs[S] & 0xFFFF",
        "inc": "regs[S] & 0xFFFF",
    }[mode]
    lines = [f"a = {address}", *_load("s", "a", byte, watch, covered)]
    if mode == "inc":
        lines.append("regs[S] = (regs[S] + STEP) & 0xFFFF")
    return lines


def _flags(msb, carry, overflow=None):
    """``Cpu._set_flags`` with N and Z from ``r``."""
    parts = [
        "(regs[2] & 0xFEF8)",
        f"(4 if r & {msb:#x} else 0)",
        "(2 if r == 0 else 0)",
        f"(1 if {carry} else 0)",
    ]
    if overflow is not None:
        parts.append(f"(0x100 if {overflow} else 0)")
    return ["regs[2] = " + " | ".join(parts)]


def _binary(name, byte, src, dst, watch, covered):
    """A Format I instruction, in the step loop's order of effects."""
    mask, msb = (0xFF, 0x80) if byte else (0xFFFF, 0x8000)
    lines = ["c = regs[2] & 1"] if name in ("ADDC", "SUBC") else []
    lines += _source(src, byte, watch, covered)
    if dst == "reg":
        read_dest = [f"d = regs[D] & {mask:#x}"]
        write = _write_register
    else:
        lines.append("b = (regs[D] + Y) & 0xFFFF" if dst == "idx" else "b = Y")
        read_dest = _load("d", "b", byte, watch, covered)
        write = partial(_store, "b", byte=byte, watch=watch, covered=covered)
    if name == "MOV":
        return lines + write("s")
    lines += read_dest
    if name in ("ADD", "ADDC"):
        lines.append("t = s + d + c" if name == "ADDC" else "t = s + d")
        lines.append(f"r = t & {mask:#x}")
        lines += _flags(msb, f"t > {mask:#x}", f"~(s ^ d) & (s ^ r) & {msb:#x}")
        return lines + write("r")
    if name in ("SUB", "SUBC", "CMP"):
        carry = "c" if name == "SUBC" else "1"
        lines.append(f"t = d + ((~s) & {mask:#x}) + {carry}")
        lines.append(f"r = t & {mask:#x}")
        lines += _flags(msb, f"t > {mask:#x}", f"(d ^ s) & (d ^ r) & {msb:#x}")
        return lines if name == "CMP" else lines + write("r")
    if name in ("AND", "BIT"):
        lines += ["r = s & d", *_flags(msb, "r")]
        return lines if name == "BIT" else lines + write("r")
    if name == "BIC":
        return lines + [f"r = d & ~s & {mask:#x}", *write("r")]
    if name == "BIS":
        return lines + ["r = d | s", *write("r")]
    # XOR writes its destination first and then sets the flags.
    return lines + ["r = s ^ d", *write("r"), *_flags(msb, "r", f"s & d & {msb:#x}")]


def _unary(name, byte):
    """RRA, RRC, SWPB or SXT on a register other than the PC."""
    mask, msb = (0xFF, 0x80) if byte else (0xFFFF, 0x8000)
    lines = [f"v = regs[S] & {mask:#x}"]
    if name == "SWPB":
        return lines + ["regs[S] = ((v & 0xFF) << 8) | ((v >> 8) & 0xFF)"]
    if name == "RRA":
        lines += [f"r = (v >> 1) | (v & {msb:#x})", *_flags(msb, "v & 1")]
    elif name == "RRC":
        lines += [f"r = (v >> 1) | ({msb:#x} if regs[2] & 1 else 0)"]
        lines += _flags(msb, "v & 1")
    else:  # SXT
        lines += ["r = (v & 0xFF) | (0xFF00 if v & 0x80 else 0)", *_flags(0x8000, "r")]
    return lines + ["regs[S] = r"]


def _body(kind, name, byte, src, dst, watch, covered):
    if kind == "binary":
        return _binary(name, byte, src, dst, watch, covered)
    if kind == "unary":
        return _unary(name, byte)
    if kind == "push":
        lines = _source(src, byte, watch, covered)
        lines += ["b = (regs[1] - 2) & 0xFFFF", "regs[1] = b"]
        return lines + _store("b", "s", False, watch, covered)
    if kind == "jump":
        if name == "JMP":
            return ["regs[0] = TARGET"]
        return [
            "sr = regs[2]",
            "regs[0] = TARGET if TAKEN[(sr & 7) | ((sr >> 5) & 8)] else NEXT",
        ]
    return ["regs[0] = NEXT", "execute(cpu, ins)"]


def _prologue(fetch):
    """The fetch's effect on the FRAM touch count and read cache.

    *fetch* is ``None`` (SRAM, no data access), ``0`` (SRAM) or the
    number of FRAM lines the instruction's words span.
    """
    if fetch is None:
        return []
    if fetch == 0:
        return ["bus._fram_touches = 0"]
    lines = ["bus._fram_touches = W"]
    for line in range(fetch):
        ways, tag = f"WAYS{line}", f"TAG{line}"
        lines += [
            f"if not {ways} or {ways}[-1] != {tag}:",
            f"    if {tag} in {ways}:",
            f"        {ways}.remove({tag})",
            f"        {ways}.append({tag})",
            "    else:",
            "        CACHE.hits -= 1  # the block counts every fetch word as a hit",
            *_indent(_indent(_miss(tag, ways))),
        ]
    return lines


def _template(shape):
    """The two-level closure factory for *shape*, generated on first use."""
    factory = _TEMPLATES.get(shape)
    if factory is None:
        (kind, name, byte, src, dst, _, check), fetch, watch, synced, covered = shape
        body = ["ENV.at = AT"] if synced else []
        if watch.fetch:
            body.append("ON_FETCH(AT, W)")
        body += _prologue(fetch) + _body(kind, name, byte, src, dst, watch, covered)
        if watch.retire:
            body.append("ON_RETIRE(APP, KIND, CYCLES)")
        if check:
            body.append("return True")
        source = "\n".join(
            [
                f"def make({', '.join(p + '=None' for p in _ENVIRONMENT)}):",
                f"    def bind({', '.join(p + '=None' for p in _ENCODED + _PLACED)}):",
                "        def op():",
                *("            " + line for line in body),
                "        return op",
                "    return bind",
            ]
        )
        namespace = {"SRAM": _SRAM, "FRAM": _FRAM, "APP": _APP}
        exec(compile(source, f"<block template {shape}>", "exec"), namespace)
        factory = _TEMPLATES[shape] = namespace["make"]
    return factory


# -- one encoding -------------------------------------------------------------------


#: One instruction encoding, decoded and analysed once per process: what
#: does not depend on where it sits or on the board.
_Encoding = namedtuple(
    "_Encoding", "instruction length cycles shape constants memory transfer raises_sp"
)


#: Analysed encodings by code bytes, or by ``(pc, bytes)`` for one that
#: reads the pc (a jump, a symbolic operand). The step loop never reads
#: it; tests that patch the decoder, the executors or the cycle tables
#: clear it (:func:`_clear`).
_ENCODINGS = {}

#: Entries :data:`_ENCODINGS` holds before it starts over, so the
#: pc-keyed encodings of many programs cannot grow it without end.
_ENCODING_ENTRIES = 4096

#: ``(length in bytes, reads the pc)`` by opcode word, length 0 if it
#: is illegal; both depend on the opcode word alone.
_OPCODES = {}


def _clear():
    """Forget every analysed encoding and opcode."""
    _ENCODINGS.clear()
    _OPCODES.clear()


def _opcode(opcode):
    """Analyse *opcode* into :data:`_OPCODES`; returns its entry."""
    try:
        instruction, length = decode_instruction(lambda address: opcode, 0)
    except EncodingError:
        info = (0, False)
    else:
        relative = instruction.mnemonic in JUMP_CONDITIONS or any(
            operand is not None and operand.mode is AddressingMode.SYMBOLIC
            for operand in (instruction.src, instruction.dst)
        )
        info = (length, relative)
    _OPCODES[opcode] = info
    return info


def _raises_sp(instruction):
    """Whether *instruction* may raise SP: it writes SP as a register
    operand or pops through it (``@SP+``)."""
    name = instruction.mnemonic
    src, dst = instruction.src, instruction.dst
    if src is not None and src.register == SP and src.mode is AddressingMode.AUTOINC:
        return True
    if name in FORMAT_I_OPCODES and name not in NO_WRITEBACK:
        target = dst
    elif name in _UNARY:
        target = src
    else:
        return False
    return target.mode is AddressingMode.REGISTER and target.register == SP


def _reads_pc(instruction):
    """Whether an operand reads the PC register, which a block leaves stale."""
    src, dst = instruction.src, instruction.dst
    if src is not None and src.register == PC:
        if src.mode is AddressingMode.REGISTER or src.mode is AddressingMode.INDIRECT:
            return True
    return (
        dst is not None
        and dst.mode is AddressingMode.REGISTER
        and dst.register == PC
        and instruction.mnemonic != "MOV"
    )


def _kind(instruction):
    """The template family of *instruction*; ``"generic"`` if none fits."""
    name = instruction.mnemonic
    if name in JUMP_CONDITIONS:
        return "jump"
    if _reads_pc(instruction):
        return "generic"
    if name in FORMAT_I_OPCODES:
        return "generic" if name == "DADD" else "binary"
    if name in _UNARY:
        register = instruction.src.mode is AddressingMode.REGISTER
        return "unary" if register else "generic"
    return "push" if name == "PUSH" else "generic"


def _analyse(code, pc, key):
    """Decode and analyse the instruction *code* at *pc*, and keep it in
    :data:`_ENCODINGS` under *key*."""
    instruction, length = decode_instruction(
        lambda address: code[address - pc] | (code[address - pc + 1] << 8), pc
    )
    family = _kind(instruction)
    name = instruction.mnemonic
    src, dst = instruction.src, instruction.dst
    byte = instruction.byte
    source = _MODES[src.mode] if src is not None else None
    dest = _MODES[dst.mode] if dst is not None else None
    cycles = instruction_cycles(instruction)
    values = {"W": length >> 1, "CYCLES": cycles}
    if family == "jump":
        memory = writes = False
        values.update(TARGET=instruction.target & 0xFFFF, TAKEN=_JUMP_TAKEN[name])
        # The condition is bound in (TAKEN): conditional jumps share one.
        name = "JMP" if name == "JMP" else "J"
    elif family == "generic":
        memory = writes = True
        values.update(ins=instruction, execute=_EXECUTORS[name])
        name = byte = source = dest = None
    elif family == "unary":
        memory = writes = False
        values["S"] = src.register
        source = None
    else:  # binary or push
        mask = 0xFF if byte else 0xFFFF
        values.update(
            S=src.register,
            X=src.value & 0xFFFF if source in ("idx", "abs") else None,
            K=src.value & 0xFFFF & mask if source == "imm" else None,
            STEP=2 if not byte or src.register in (PC, SP) else 1,
        )
        if family == "push":
            memory = writes = True
        else:
            values.update(
                D=dst.register,
                Y=dst.value & 0xFFFF if dest in ("idx", "abs") else None,
            )
            memory = src.mode in MEMORY_MODES or dst.mode in MEMORY_MODES
            writes = dst.mode in MEMORY_MODES and name not in ("CMP", "BIT")
    encoding = _Encoding(
        instruction,
        length,
        cycles,
        (family, name, byte, source, dest, memory, writes),
        tuple(map(values.get, _ENCODED)),
        memory,
        instruction.writes_pc(),
        _raises_sp(instruction),
    )
    if len(_ENCODINGS) >= _ENCODING_ENTRIES:
        _ENCODINGS.clear()
    _ENCODINGS[key] = encoding
    return encoding


# -- one instruction ---------------------------------------------------------------


def _compile(env, code, pc, end, kind, relative):
    """The closure for the instruction *code* at *pc*, in region *kind*,
    and its encoding; ``None`` if its words straddle a region change or
    a load may write them."""
    length = end - pc
    if env.kinds[pc:end].count(kind) != length or env.guarded.find(1, pc, end) >= 0:
        return None
    key = (pc, code) if relative else code
    encoding = _ENCODINGS.get(key)
    if encoding is None:
        encoding = _analyse(code, pc, key)
    if kind is _FRAM:
        # The FRAM read cache lines the fetch spans, with their sets.
        tag = pc >> env.shift
        last = (end - 2) >> env.shift
        fetch = last - tag + 1
        ways, sets = env.ways, env.sets
        lines = ()
        while tag <= last:
            lines += (ways[tag % sets], tag)
            tag += 1
    else:
        fetch = 0 if encoding.memory else None
        lines = ()
    key = (encoding.shape, fetch)
    bind = env.makers.get(key)
    if bind is None:
        bind = env.maker(key)
    return bind(*encoding.constants, end & 0xFFFF, pc, kind, *lines), encoding


# -- the run environment --------------------------------------------------------------

#: The guard of a board with no data cache: a load writes nothing.
_UNGUARDED = bytes(0x10000)


class _Environment:
    """What a CPU's closures bind, valid while :func:`_context` is
    unchanged."""

    def __init__(self, cpu, key):
        bus = cpu.bus
        self.key = key
        self.cpu = cpu
        self.counters = counters = bus.counters
        self.fram_cache = fram_cache = bus.fram_cache
        self.runtime = runtime = bus.data_cache
        self.kinds = bus._kinds
        #: Nonzero on every byte a load may write (the data cache's line
        #: store and window): code there runs on the step loop, so a
        #: block's bytes change only by a store, which checks them.
        self.guarded = _UNGUARDED
        if runtime is not None:
            self.guarded = bytearray(0x10000)
            for lo, hi in runtime.load_writes():
                self.guarded[lo:hi] = b"\1" * (hi - lo)
        # Only ``install`` changes the subscribers, and it drops this
        # environment.
        board = bus.board
        handlers = board.handlers if board is not None else {}
        #: The ``on_block`` handler: blocks then also end after an
        #: instruction that may raise SP.
        self.enter = handlers.get("on_block")
        #: The access handlers each instruction calls itself.
        self.watch = _Watch(*(f"on_{name}" in handlers for name in _Watch._fields))
        #: Whether memory instructions record their pc for events
        #: stamped inside them (see :func:`_stamping`).
        self.synced = (
            runtime is not None and board is not None and board.emit is not None
        )
        #: The running block and memory instruction, while synced.
        self.block = None
        self.at = None
        self.penalty = bus.contention_penalty
        # The FRAM read cache's geometry, for fetch lines.
        self.ways = fram_cache._lines
        self.sets = fram_cache.sets
        self.shift = fram_cache.line_bytes.bit_length() - 1
        #: Inner factories by ``(encoding shape, fetch)``: the templates
        #: with this environment bound in.
        self.makers = {}
        self.bound = {
            "regs": cpu.regs,
            "bus": bus,
            "data": bus.memory.data,
            "kinds": bus._kinds,
            "counts": counters.access_counts,
            # The bus below the seam: a block calls the handlers itself.
            "read": getattr(bus.read, "unobserved", bus.read),
            "write": getattr(bus.write, "unobserved", bus.write),
            # FRAM timing and the FRAM read cache, for the inline FRAM
            # accesses and fetch lookups.
            "COUNTERS": counters,
            "CACHE": fram_cache,
            "LINES": fram_cache._lines,
            "SETS": fram_cache.sets,
            "SHIFT": self.shift,
            "ASSOC": fram_cache.ways,
            "WAIT": bus.wait_states,
            "PENALTY": self.penalty,
            # The data cache's runtime, for the FRAM accesses it covers.
            "COVERED": None if runtime is None else runtime.covered,
            "APP_READ": None if runtime is None else runtime.app_read,
            "APP_WRITE": None if runtime is None else runtime.app_write,
            "ON_FETCH": handlers.get("on_fetch"),
            "ON_READ": handlers.get("on_read"),
            "ON_WRITE": handlers.get("on_write"),
            "ON_RETIRE": handlers.get("on_retire"),
            "ENV": self,
            "cpu": cpu,
        }

    def maker(self, key):
        """The inner factory for *key*, ``(encoding shape, fetch)``; *fetch*
        is as :func:`_prologue` takes it."""
        memory = key[0][5]  # whether the encoding may access memory
        synced = memory and self.synced
        covered = memory and self.runtime is not None
        shape = (*key, self.watch, synced, covered)
        bind = self.makers[key] = _template(shape)(**self.bound)
        return bind


def _context(cpu):
    """What the closures of *cpu* depend on beyond its memory bytes."""
    bus = cpu.bus
    return (
        id(bus.counters),
        id(bus.fram_cache),
        id(bus.data_cache),
        bus.wait_states,
        bus.contention_penalty,
        frozenset(cpu.hooks),
    )


def _environment(cpu):
    """The CPU's environment, rebuilt (dropping every block) on a change."""
    key = _context(cpu)
    env = cpu._block_env
    if env is None or env.key != key:
        cpu._blocks.clear()
        cpu._entries.clear()
        env = cpu._block_env = _Environment(cpu, key)
    return env


# -- blocks --------------------------------------------------------------------------


class _Block:
    """Straight-line code from ``start`` to ``end`` and its fixed tallies."""

    __slots__ = (
        "start",
        "end",
        "snapshot",
        "ops",
        "count",
        "encodings",
        "pcs",
        "slot",
        "words",
        "cycles",
        "stall",
        "hits",
        "transfer",
        "clears",
        "tail",
        "prefixes",
    )


def _build(cpu, env, start):
    """Compile the block entered at *start*, or ``None`` if none can be.

    Compiled instructions are kept by address and bytes, so code that
    comes back to an address -- a function recopied into its old cache
    slot, a block chained and unchained -- is bound once per board.
    """
    bus = cpu.bus
    kinds = bus._kinds
    data = bus.memory.data
    kind = kinds[start]
    if start & 1 or (kind is not _SRAM and kind is not _FRAM):
        return None
    hooks = cpu.hooks
    compiled = cpu._entries
    enter = env.enter
    ops = []
    encodings = []
    pcs = []
    count = cycles = 0
    pc = start
    while count < MAX_BLOCK and pc < 0x10000:
        if (pc != start and pc in hooks) or kinds[pc] is not kind:
            break
        opcode = data[pc] | (data[pc + 1] << 8)
        length, relative = _OPCODES.get(opcode) or _opcode(opcode)
        end = pc + length
        if not length or end > 0x10000:
            break
        code = bytes(data[pc:end])
        key = (pc, code)
        entry = compiled.get(key)
        if entry is None:
            entry = _compile(env, code, pc, end, kind, relative)
            if entry is None:
                break
            compiled[key] = entry
        op, encoding = entry
        ops.append(op)
        encodings.append(encoding)
        pcs.append(pc)
        count += 1
        cycles += encoding.cycles
        pc = end
        if encoding.transfer or (enter is not None and encoding.raises_sp):
            break
    if not count:
        return None
    block = _Block()
    block.start = start
    block.end = pc
    block.snapshot = bytes(data[start:pc])
    block.ops = tuple(ops)
    block.count = count
    block.encodings = tuple(encodings)
    block.pcs = tuple(pcs)
    block.slot = instruction_slot(_APP, kind)
    block.words = (pc - start) >> 1
    block.cycles = cycles
    block.transfer = encoding.transfer
    if kind is _FRAM:
        block.stall = env.penalty * (block.words - count)
        block.hits = block.words
        block.clears = False
    else:
        block.stall = block.hits = 0
        block.clears = not encoding.memory
    block.tail = (pcs[-1], pcs[-2], pcs[-3]) if count >= 3 else None
    block.prefixes = _prefixes(block, env.penalty) if env.synced else None
    cpu._blocks[start] = block
    return block


def _prefixes(block, penalty):
    """What :func:`_retire` adds for a fault at each memory instruction:
    ``(words, retired, cycles, stall, hits)`` by pc."""
    prefixes = {}
    words = cycles = 0
    for index, encoding in enumerate(block.encodings):
        words += encoding.length >> 1
        if encoding.memory:
            stall = penalty * (words - index - 1) if block.hits else 0
            hits = words if block.hits else 0
            prefixes[block.pcs[index]] = (words, index, cycles, stall, hits)
        cycles += encoding.cycles
    return prefixes


def _retire(cpu, block, fetched, retired):
    """Add the tallies of a block prefix: *fetched* instructions fetched,
    the first *retired* of them retired. Returns the PC after the last
    fetched one."""
    bus = cpu.bus
    counters = bus.counters
    encodings = block.encodings
    words = sum(encoding.length for encoding in encodings[:fetched]) >> 1
    counters.access_counts[block.slot] += words
    counters.instruction_counts[block.slot] += retired
    counters.cycle_counts[_APP.slot] += sum(e.cycles for e in encodings[:retired])
    if block.hits:
        counters.stall_cycles += bus.contention_penalty * (words - fetched)
        bus.fram_cache.hits += words
    cpu.instructions_retired += retired
    history = cpu.pc_history
    recent = list(reversed(block.pcs[max(fetched - 3, 0) : fetched]))
    history[:] = (recent + history)[:3]
    return (block.start + 2 * words) & 0xFFFF


def _fault(cpu, block, index, error):
    """Leave the state a fault at instruction *index* leaves; re-raise."""
    cpu.regs[PC] = _retire(cpu, block, index + 1, index)
    if isinstance(error, BusError):
        pc = block.pcs[index]
        instruction = block.encodings[index].instruction
        raise SimulationError(f"at PC={pc:#06x} ({instruction}): {error}") from error
    raise error


# -- the run loop ---------------------------------------------------------------------


def run_blocks(cpu, max_instructions):
    """Run *cpu* to the halt port through blocks, as ``Cpu.run`` would.

    The caller has checked that the counters tally on the bus (no fuse
    or watchdog is armed). A halted machine runs again only after a
    reset or a restore, so the blocks are dropped at the halt rather
    than kept until the board is collected.
    """
    env = _environment(cpu)
    board = cpu.bus.board
    if env.synced:
        emit = board.emit
        env.block = None
        board.emit = _stamping(env, emit)
    try:
        _run(cpu, env, max_instructions)
    finally:
        if env.synced:
            board.emit = emit
    cpu._blocks.clear()
    cpu._entries.clear()


def _stamping(env, emit):
    """*emit* with the running block's prefix tallies added while it
    runs: those of the instructions before the memory instruction
    emitting and of its own fetch (see :func:`_prefixes`), as the step
    loop has them while it executes that instruction."""
    cpu = env.cpu
    counters = env.counters
    fram_cache = env.fram_cache
    access_counts = counters.access_counts
    instruction_counts = counters.instruction_counts
    cycle_counts = counters.cycle_counts
    app = _APP.slot

    def stamped(kind, **fields):
        block = env.block
        if block is None:
            emit(kind, **fields)
            return
        words, retired, cycles, stall, hits = block.prefixes[env.at]
        slot = block.slot
        access_counts[slot] += words
        instruction_counts[slot] += retired
        cycle_counts[app] += cycles
        counters.stall_cycles += stall
        fram_cache.hits += hits
        cpu.instructions_retired += retired
        try:
            emit(kind, **fields)
        finally:
            access_counts[slot] -= words
            instruction_counts[slot] -= retired
            cycle_counts[app] -= cycles
            counters.stall_cycles -= stall
            fram_cache.hits -= hits
            cpu.instructions_retired -= retired

    return stamped


def _run(cpu, env, max_instructions):
    bus = cpu.bus
    blocks = cpu._blocks
    hooks = cpu.hooks
    regs = cpu.regs
    data = bus.memory.data
    counters = bus.counters
    access_counts = counters.access_counts
    instruction_counts = counters.instruction_counts
    cycle_counts = counters.cycle_counts
    app = _APP.slot
    history = cpu.pc_history
    step = cpu.step
    enter = env.enter
    synced = env.synced
    remaining = max_instructions
    while not bus.halted:
        pc = regs[PC]
        hook = hooks.get(pc)
        block = None
        if hook is None:
            block = blocks.get(pc)
            if block is None or data[block.start : block.end] != block.snapshot:
                block = _build(cpu, env, pc)
        if block is None or block.count >= remaining or bus.attribution is not _APP:
            # A hook, an instruction no block covers, or a block that
            # could use up the budget: one step (whose seam wrapper
            # calls ``enter``).
            if hook is not None:
                if enter is not None:
                    enter()
                hook(cpu)
            elif not step():
                return
            if bus.halted:
                return
            remaining -= 1
            if remaining <= 0:
                raise RunawayError(
                    f"program did not halt within {max_instructions} instructions"
                )
            continue

        if enter is not None:
            enter()
        start, end, snapshot = block.start, block.end, block.snapshot
        if synced:
            env.block = block
        index = 0
        try:
            for index, op in enumerate(block.ops):
                if op() and (bus.halted or data[start:end] != snapshot):
                    break
        except BaseException as error:
            _fault(cpu, block, index, error)
        if synced:
            env.block = None
        count = index + 1
        if count < block.count:
            regs[PC] = _retire(cpu, block, count, count)
        else:
            slot = block.slot
            access_counts[slot] += block.words
            instruction_counts[slot] += count
            cycle_counts[app] += block.cycles
            if block.hits:
                counters.stall_cycles += block.stall
                env.fram_cache.hits += block.hits
            cpu.instructions_retired += count
            if not block.transfer:
                regs[PC] = end & 0xFFFF
            if block.clears:
                bus._fram_touches = 0
            tail = block.tail
            if tail is not None:
                history[0], history[1], history[2] = tail
            else:
                recent = list(reversed(block.pcs))
                history[:] = (recent + history)[:3]
        remaining -= count
