"""MSP430 CPU executor.

Fetches and decodes real instruction words from simulated memory on
every step (with a snapshot-validated decode cache so self-modifying
code -- the heart of SwapRAM -- stays correct), executes them with
faithful flag semantics, and accounts unstalled cycles and per-region
instruction counts.

**Native hooks** are the semihosting mechanism used to host the cache
runtimes: when the PC lands on a hooked address the registered callable
runs instead of a fetch. Hooks do all their memory traffic through the
bus and are responsible for charging their own modelled cycles and
setting the continuation PC.
"""

from repro.isa.cycles import instruction_cycles
from repro.isa.encoding import EncodingError, decode_instruction
from repro.isa.instructions import JUMP_CONDITIONS, Instruction
from repro.isa.operands import AddressingMode
from repro.isa.registers import PC, SP, SR
from repro.machine.bus import BusError

#: Carry is bit 0, so ``sr & _FLAG_C`` is the carry digit itself.
_FLAG_C = 0x0001
_FLAG_Z = 0x0002
_FLAG_N = 0x0004
_FLAG_V = 0x0100
_FLAG_BITS = {"C": _FLAG_C, "Z": _FLAG_Z, "N": _FLAG_N, "V": _FLAG_V}
#: SR with N, Z, C and V cleared.
_KEEP_NZCV = 0xFFFF & ~(_FLAG_N | _FLAG_Z | _FLAG_C | _FLAG_V)

# Addressing modes as module globals: on the per-operand path, an enum
# class attribute lookup goes through the enum metaclass and costs about
# ten global loads.
_REGISTER = AddressingMode.REGISTER
_INDEXED = AddressingMode.INDEXED
_SYMBOLIC = AddressingMode.SYMBOLIC
_ABSOLUTE = AddressingMode.ABSOLUTE
_INDIRECT = AddressingMode.INDIRECT
_AUTOINC = AddressingMode.AUTOINC
_IMMEDIATE = AddressingMode.IMMEDIATE

#: Jump conditions by condition code, over the N, Z, C, V flags.
_CONDITIONS = (
    lambda n, z, c, v: not z,  # JNE
    lambda n, z, c, v: z,  # JEQ
    lambda n, z, c, v: not c,  # JNC
    lambda n, z, c, v: c,  # JC
    lambda n, z, c, v: n,  # JN
    lambda n, z, c, v: n == v,  # JGE
    lambda n, z, c, v: n != v,  # JL
    lambda n, z, c, v: True,  # JMP
)

#: Jump mnemonic (aliases included) -> taken?, indexed by SR's C, Z, N
#: and V packed into bits 0-3, ``(sr & 7) | ((sr >> 5) & 8)``. Evaluated
#: once here, so taking a jump is two lookups.
_JUMP_TAKEN = {
    name: tuple(
        bool(_CONDITIONS[code](*(bool(index & bit) for bit in (4, 2, 1, 8))))
        for index in range(16)
    )
    for name, code in JUMP_CONDITIONS.items()
}


class SimulationError(Exception):
    """Execution fault (illegal opcode, runaway program, bus error)."""


class RunawayError(SimulationError):
    """The program exceeded its instruction budget without halting.

    A distinct subclass so watchdogs (the experiments runner, the fault
    harness) can turn runaways into first-class DNF/livelock outcomes
    while still treating every other :class:`SimulationError` as a
    crash.
    """


class Cpu:
    """A single MSP430 core attached to a :class:`~repro.machine.bus.Bus`."""

    #: Run the step loop whatever is attached: the reference that tests
    #: compare the block path against (set it on an instance).
    _step_loop = False

    def __init__(self, bus):
        self.bus = bus
        self.regs = [0] * 16
        self.hooks = {}
        self.instructions_retired = 0
        #: Addresses of the last three executed instructions, newest first.
        #: Cache runtimes use this to identify the branch that entered a
        #: stub (for block chaining) without any architectural support.
        self.pc_history = [0, 0, 0]
        self._decode_cache = {}
        # The block path's caches (see repro.machine.block): blocks by
        # entry pc, compiled instructions (closure and encoding) by
        # (pc, bytes), and what the compiled closures bind.
        self._blocks = {}
        self._entries = {}
        self._block_env = None

    # -- status flags ----------------------------------------------------------

    def _set_flags(self, n, z, c, v):
        """Set N, Z, C and V from the truth of each argument."""
        regs = self.regs
        sr = regs[SR] & _KEEP_NZCV
        if n:
            sr |= _FLAG_N
        if z:
            sr |= _FLAG_Z
        if c:
            sr |= _FLAG_C
        if v:
            sr |= _FLAG_V
        regs[SR] = sr

    def flag(self, name):
        return 1 if self.regs[SR] & _FLAG_BITS[name] else 0

    # -- operand plumbing ---------------------------------------------------------

    def _operand_address(self, operand):
        """Memory address an operand refers to (memory modes only)."""
        mode = operand.mode
        if mode is _INDEXED:
            return (self.regs[operand.register] + operand.value) & 0xFFFF
        if mode is _ABSOLUTE or mode is _SYMBOLIC:
            return operand.value & 0xFFFF
        if mode is _INDIRECT or mode is _AUTOINC:
            return self.regs[operand.register] & 0xFFFF
        raise SimulationError(f"operand has no address: {operand}")

    def _read_source(self, operand, byte):
        mode = operand.mode
        if mode is _REGISTER:
            value = self.regs[operand.register]
            return value & 0xFF if byte else value & 0xFFFF
        if mode is _IMMEDIATE:
            value = operand.value & 0xFFFF
            return value & 0xFF if byte else value
        address = self._operand_address(operand)
        value = self.bus.read(address, byte=byte)
        if mode is _AUTOINC:
            register = operand.register
            step = 2 if (not byte or register in (PC, SP)) else 1
            self.regs[register] = (self.regs[register] + step) & 0xFFFF
        return value

    def _dest_ref(self, operand):
        """Resolve a destination once: ('reg', n) or ('mem', address)."""
        if operand.mode is _REGISTER:
            return ("reg", operand.register)
        return ("mem", self._operand_address(operand))

    def _read_dest(self, ref, byte):
        kind, where = ref
        if kind == "reg":
            value = self.regs[where]
            return value & 0xFF if byte else value & 0xFFFF
        return self.bus.read(where, byte=byte)

    def _write_dest(self, ref, value, byte):
        kind, where = ref
        if kind == "reg":
            # Byte operations clear the destination register's high byte.
            self.regs[where] = (value & 0xFF) if byte else (value & 0xFFFF)
        else:
            self.bus.write(where, value, byte=byte)

    # -- execution ------------------------------------------------------------------

    def step(self):
        """Execute one instruction (or one native hook). Returns False if halted."""
        bus = self.bus
        if bus.halted:
            return False
        regs = self.regs
        pc = regs[PC]

        hook = self.hooks.get(pc)
        if hook is not None:
            hook(self)
            return not bus.halted

        history = self.pc_history
        history[0], history[1], history[2] = pc, history[0], history[1]
        bus.begin_instruction()
        cached = self._decode_cache.get(pc)
        if cached is not None and bus.memory.data[pc : pc + cached[3]] == cached[0]:
            _snapshot, execute, instruction, length, cycles = cached
            bus.account_fetch(pc, length >> 1)
        else:
            execute, instruction, length, cycles = self._decode(pc)

        regs[PC] = (pc + length) & 0xFFFF
        try:
            execute(self, instruction)
        except BusError as error:
            raise SimulationError(
                f"at PC={pc:#06x} ({instruction}): {error}"
            ) from error
        bus.counters.record_instruction(bus.attribution, bus._kinds[pc], cycles)
        self.instructions_retired += 1
        return not bus.halted

    def _decode(self, pc):
        """Decode at *pc* through accounted fetches and cache the result.

        A decode-cache entry is ``(snapshot, execute, instruction,
        length, cycles)``: the instruction's bytes, which every hit
        compares against live memory, and its executor, bound once
        here so a hit calls it directly.
        """
        bus = self.bus
        try:
            instruction, length = decode_instruction(bus.fetch_word, pc)
        except (EncodingError, BusError) as error:
            raise SimulationError(f"at PC={pc:#06x}: {error}") from error
        execute = _EXECUTORS[instruction.mnemonic]
        cycles = instruction_cycles(instruction)
        snapshot = bytes(bus.memory.data[pc : pc + length])
        self._decode_cache[pc] = (snapshot, execute, instruction, length, cycles)
        return execute, instruction, length, cycles

    def run(self, max_instructions=50_000_000):
        """Run until the program halts; guard against runaways.

        While the counters tally on the bus -- no power fuse or cycle
        watchdog is armed -- the run takes the block path
        (:mod:`repro.machine.block`), observed or not: seam subscribers
        see the same handler calls there. Otherwise it is the step loop
        below, which is also the reference the block path is tested
        against; tests select it with :attr:`_step_loop`.
        """
        if self.bus.counters.bus_tallies and not self._step_loop:
            from repro.machine.block import run_blocks

            run_blocks(self, max_instructions)
            return self
        remaining = max_instructions
        step = self.step
        while step():
            remaining -= 1
            if remaining <= 0:
                raise RunawayError(
                    f"program did not halt within {max_instructions} instructions"
                )
        return self

    # -- checkpointing and power cycling (fault injection) --------------------

    def snapshot(self):
        """Architectural state only; the decode cache and the blocks are
        memoisations validated against memory bytes, so they never need
        capturing."""
        return {
            "regs": list(self.regs),
            "pc_history": list(self.pc_history),
            "instructions_retired": self.instructions_retired,
        }

    def restore(self, snapshot):
        self.regs[:] = snapshot["regs"]
        self.pc_history[:] = snapshot["pc_history"]
        self.instructions_retired = snapshot["instructions_retired"]
        return self

    def reset(self, entry):
        """Power-on reset: registers cleared, PC at the entry vector.

        ``instructions_retired`` deliberately survives (it is host-side
        accounting, like the access counters). The decode cache and this
        CPU's blocks and compiled instructions are dropped, so the step
        loop decodes cold; the block path still finds each encoding it
        has seen in its process-wide table (``repro.machine.block``),
        which holds nothing of this machine. Either way the fetches are
        charged exactly as accounted (the cached and uncached fetch
        paths charge identically).
        """
        for index in range(16):
            self.regs[index] = 0
        self.regs[PC] = entry & 0xFFFF
        self.pc_history[:] = [0, 0, 0]
        self._decode_cache.clear()
        self._blocks.clear()
        self._entries.clear()
        return self

    # -- instruction semantics ----------------------------------------------------

    def _dispatch(self, instruction):
        """Execute one decoded *instruction* (PC already advanced)."""
        _EXECUTORS[instruction.mnemonic](self, instruction)

    def _jump(self, name, target):
        """Take jump *name* to *target* if its condition holds."""
        self._exec_jump(Instruction(name, target=target))

    def _exec_jump(self, instruction):
        regs = self.regs
        sr = regs[SR]
        if _JUMP_TAKEN[instruction.mnemonic][(sr & 7) | ((sr >> 5) & 8)]:
            regs[PC] = instruction.target & 0xFFFF

    # Format I -------------------------------------------------------------------

    def _binary_setup(self, instruction):
        byte = instruction.byte
        source = self._read_source(instruction.src, byte)
        ref = self._dest_ref(instruction.dst)
        dest = self._read_dest(ref, byte)
        return byte, source, ref, dest

    def _add_like(self, instruction, carry_in):
        byte, source, ref, dest = self._binary_setup(instruction)
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        total = source + dest + carry_in
        result = total & mask
        overflow = ~(source ^ dest) & (source ^ result) & msb
        self._set_flags(result & msb, result == 0, total > mask, overflow)
        self._write_dest(ref, result, byte)

    def _sub_like(self, instruction, carry_in, writeback):
        byte, source, ref, dest = self._binary_setup(instruction)
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        total = dest + ((~source) & mask) + carry_in
        result = total & mask
        overflow = (dest ^ source) & (dest ^ result) & msb
        self._set_flags(result & msb, result == 0, total > mask, overflow)
        if writeback:
            self._write_dest(ref, result, byte)

    def _exec_mov(self, instruction):
        byte = instruction.byte
        source = self._read_source(instruction.src, byte)
        ref = self._dest_ref(instruction.dst)
        self._write_dest(ref, source, byte)

    def _exec_add(self, instruction):
        self._add_like(instruction, 0)

    def _exec_addc(self, instruction):
        self._add_like(instruction, self.regs[SR] & _FLAG_C)

    def _exec_sub(self, instruction):
        self._sub_like(instruction, 1, writeback=True)

    def _exec_subc(self, instruction):
        self._sub_like(instruction, self.regs[SR] & _FLAG_C, writeback=True)

    def _exec_cmp(self, instruction):
        self._sub_like(instruction, 1, writeback=False)

    def _exec_dadd(self, instruction):
        byte, source, ref, dest = self._binary_setup(instruction)
        digits = 2 if byte else 4
        carry = self.regs[SR] & _FLAG_C
        result = 0
        for digit in range(digits):
            shift = 4 * digit
            total = ((source >> shift) & 0xF) + ((dest >> shift) & 0xF) + carry
            carry = 1 if total > 9 else 0
            if carry:
                total -= 10
            result |= (total & 0xF) << shift
        msb = 0x80 if byte else 0x8000
        self._set_flags(result & msb, result == 0, carry, self.regs[SR] & _FLAG_V)
        self._write_dest(ref, result, byte)

    def _logic(self, instruction, combine, writeback=True, set_flags=True):
        byte, source, ref, dest = self._binary_setup(instruction)
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        result = combine(source, dest) & mask
        if set_flags:
            self._set_flags(result & msb, result == 0, result != 0, False)
        if writeback:
            self._write_dest(ref, result, byte)
        return source, dest, result, msb

    def _exec_and(self, instruction):
        self._logic(instruction, lambda s, d: s & d)

    def _exec_bit(self, instruction):
        self._logic(instruction, lambda s, d: s & d, writeback=False)

    def _exec_bic(self, instruction):
        self._logic(instruction, lambda s, d: d & ~s, set_flags=False)

    def _exec_bis(self, instruction):
        self._logic(instruction, lambda s, d: d | s, set_flags=False)

    def _exec_xor(self, instruction):
        source, dest, result, msb = self._logic(
            instruction, lambda s, d: s ^ d, set_flags=False
        )
        self._set_flags(result & msb, result == 0, result != 0, source & dest & msb)

    # Format II -----------------------------------------------------------------

    def _unary_setup(self, instruction):
        byte = instruction.byte
        ref = self._dest_ref(instruction.src)
        value = self._read_dest(ref, byte)
        return byte, ref, value

    def _exec_rra(self, instruction):
        byte, ref, value = self._unary_setup(instruction)
        msb = 0x80 if byte else 0x8000
        carry = value & 1
        result = (value >> 1) | (value & msb)
        self._set_flags(result & msb, result == 0, carry, False)
        self._write_dest(ref, result, byte)

    def _exec_rrc(self, instruction):
        byte, ref, value = self._unary_setup(instruction)
        msb = 0x80 if byte else 0x8000
        carry_in = self.regs[SR] & _FLAG_C
        carry_out = value & 1
        result = (value >> 1) | (msb if carry_in else 0)
        self._set_flags(result & msb, result == 0, carry_out, False)
        self._write_dest(ref, result, byte)

    def _exec_swpb(self, instruction):
        _byte, ref, value = self._unary_setup(instruction)
        result = ((value & 0xFF) << 8) | ((value >> 8) & 0xFF)
        self._write_dest(ref, result, byte=False)

    def _exec_sxt(self, instruction):
        _byte, ref, value = self._unary_setup(instruction)
        low = value & 0xFF
        result = low | (0xFF00 if low & 0x80 else 0)
        self._set_flags(result & 0x8000, result == 0, result != 0, False)
        self._write_dest(ref, result, byte=False)

    def _exec_push(self, instruction):
        value = self._read_source(instruction.src, instruction.byte)
        self.regs[SP] = (self.regs[SP] - 2) & 0xFFFF
        self.bus.write(self.regs[SP], value, byte=False)

    def _exec_call(self, instruction):
        target = self._read_source(instruction.src, byte=False)
        if target & 1:
            raise SimulationError(f"CALL to odd address {target:#06x}")
        self.regs[SP] = (self.regs[SP] - 2) & 0xFFFF
        self.bus.write(self.regs[SP], self.regs[PC], byte=False)
        self.regs[PC] = target

    def _exec_reti(self, instruction):
        self.regs[SR] = self.bus.read(self.regs[SP])
        self.regs[SP] = (self.regs[SP] + 2) & 0xFFFF
        self.regs[PC] = self.bus.read(self.regs[SP])
        self.regs[SP] = (self.regs[SP] + 2) & 0xFFFF


_EXECUTORS = {
    "MOV": Cpu._exec_mov,
    "ADD": Cpu._exec_add,
    "ADDC": Cpu._exec_addc,
    "SUB": Cpu._exec_sub,
    "SUBC": Cpu._exec_subc,
    "CMP": Cpu._exec_cmp,
    "DADD": Cpu._exec_dadd,
    "AND": Cpu._exec_and,
    "BIT": Cpu._exec_bit,
    "BIC": Cpu._exec_bic,
    "BIS": Cpu._exec_bis,
    "XOR": Cpu._exec_xor,
    "RRA": Cpu._exec_rra,
    "RRC": Cpu._exec_rrc,
    "SWPB": Cpu._exec_swpb,
    "SXT": Cpu._exec_sxt,
    "PUSH": Cpu._exec_push,
    "CALL": Cpu._exec_call,
    "RETI": Cpu._exec_reti,
    **dict.fromkeys(JUMP_CONDITIONS, Cpu._exec_jump),
}
