"""CPU execution semantics: flags, stack, control flow, byte ops."""

import pytest

from repro.asm.parser import parse_instruction
from repro.isa.registers import PC, SP, SR
from repro.machine import fr2355_board
from repro.machine.cpu import SimulationError

from tests.helpers import run_asm, run_main


def make_cpu():
    board = fr2355_board()
    board.cpu.regs[SP] = 0x3000
    board.bus.begin_instruction()
    return board.cpu


def execute(cpu, text):
    cpu._dispatch(parse_instruction(text))
    return cpu


def flags(cpu):
    return {name: cpu.flag(name) for name in "NZCV"}


# -- arithmetic flags ------------------------------------------------------------


def test_add_sets_carry_and_wraps():
    cpu = make_cpu()
    cpu.regs[4] = 0xFFFF
    cpu.regs[5] = 0x0001
    execute(cpu, "ADD R5, R4")
    assert cpu.regs[4] == 0
    assert flags(cpu) == {"N": 0, "Z": 1, "C": 1, "V": 0}


def test_add_signed_overflow():
    cpu = make_cpu()
    cpu.regs[4] = 0x7FFF
    execute(cpu, "ADD #1, R4")
    assert cpu.regs[4] == 0x8000
    assert cpu.flag("V") == 1
    assert cpu.flag("N") == 1
    assert cpu.flag("C") == 0


def test_sub_carry_is_not_borrow():
    cpu = make_cpu()
    cpu.regs[4] = 5
    execute(cpu, "SUB #3, R4")
    assert cpu.regs[4] == 2
    assert cpu.flag("C") == 1  # no borrow
    cpu.regs[4] = 3
    execute(cpu, "SUB #5, R4")
    assert cpu.regs[4] == 0xFFFE
    assert cpu.flag("C") == 0  # borrow
    assert cpu.flag("N") == 1


def test_cmp_does_not_write():
    cpu = make_cpu()
    cpu.regs[4] = 7
    execute(cpu, "CMP #7, R4")
    assert cpu.regs[4] == 7
    assert cpu.flag("Z") == 1


def test_addc_and_subc_use_carry():
    cpu = make_cpu()
    cpu.regs[4] = 10
    execute(cpu, "SETC")
    execute(cpu, "ADDC #0, R4")
    assert cpu.regs[4] == 11
    execute(cpu, "CLRC")
    cpu.regs[5] = 10
    execute(cpu, "SUBC #0, R5")  # 10 + 0xFFFF + 0 = borrow form of 10 - 1
    assert cpu.regs[5] == 9


def test_dadd_bcd():
    cpu = make_cpu()
    cpu.regs[4] = 0x0199
    cpu.regs[5] = 0x0001
    execute(cpu, "CLRC")
    execute(cpu, "DADD R5, R4")
    assert cpu.regs[4] == 0x0200
    cpu.regs[6] = 0x9999
    execute(cpu, "CLRC")
    execute(cpu, "DADD #1, R6")
    assert cpu.regs[6] == 0x0000
    assert cpu.flag("C") == 1


# -- logic flags ---------------------------------------------------------------------


def test_and_sets_carry_when_nonzero():
    cpu = make_cpu()
    cpu.regs[4] = 0x0F0F
    execute(cpu, "AND #0x00FF, R4")
    assert cpu.regs[4] == 0x000F
    assert flags(cpu) == {"N": 0, "Z": 0, "C": 1, "V": 0}
    execute(cpu, "AND #0, R4")
    assert flags(cpu) == {"N": 0, "Z": 1, "C": 0, "V": 0}


def test_bit_tests_without_writing():
    cpu = make_cpu()
    cpu.regs[4] = 0x8000
    execute(cpu, "BIT #0x8000, R4")
    assert cpu.regs[4] == 0x8000
    assert cpu.flag("N") == 1
    assert cpu.flag("C") == 1


def test_bic_bis_leave_flags():
    cpu = make_cpu()
    execute(cpu, "SETC")
    cpu.regs[4] = 0xFF00
    execute(cpu, "BIC #0x0F00, R4")
    assert cpu.regs[4] == 0xF000
    assert cpu.flag("C") == 1  # unchanged
    execute(cpu, "BIS #0x000F, R4")
    assert cpu.regs[4] == 0xF00F


def test_xor_overflow_when_both_negative():
    cpu = make_cpu()
    cpu.regs[4] = 0x8001
    cpu.regs[5] = 0x8002
    execute(cpu, "XOR R5, R4")
    assert cpu.regs[4] == 0x0003
    assert cpu.flag("V") == 1
    assert cpu.flag("C") == 1


# -- shifts / rotates -------------------------------------------------------------------


def test_rra_arithmetic_shift():
    cpu = make_cpu()
    cpu.regs[4] = 0x8003
    execute(cpu, "RRA R4")
    assert cpu.regs[4] == 0xC001
    assert cpu.flag("C") == 1


def test_rrc_rotates_through_carry():
    cpu = make_cpu()
    cpu.regs[4] = 0x0001
    execute(cpu, "SETC")
    execute(cpu, "RRC R4")
    assert cpu.regs[4] == 0x8000
    assert cpu.flag("C") == 1


def test_swpb_and_sxt():
    cpu = make_cpu()
    cpu.regs[4] = 0x1234
    execute(cpu, "SWPB R4")
    assert cpu.regs[4] == 0x3412
    cpu.regs[5] = 0x0080
    execute(cpu, "SXT R5")
    assert cpu.regs[5] == 0xFF80
    assert cpu.flag("N") == 1


# -- byte operations ------------------------------------------------------------------------


def test_byte_op_clears_high_byte_of_register():
    cpu = make_cpu()
    cpu.regs[4] = 0xAB00
    cpu.regs[5] = 0x12CD
    execute(cpu, "MOV.B R5, R4")
    assert cpu.regs[4] == 0x00CD


def test_byte_memory_write_leaves_neighbor():
    cpu = make_cpu()
    cpu.bus.write(0x2100, 0xAABB)
    cpu.regs[4] = 0x2100
    cpu.regs[5] = 0x11
    execute(cpu, "MOV.B R5, 0(R4)")
    assert cpu.bus.memory.read_word(0x2100) == 0xAA11


def test_byte_autoincrement_steps_one():
    cpu = make_cpu()
    cpu.bus.memory.write_bytes(0x2100, b"\x0a\x0b")
    cpu.regs[4] = 0x2100
    execute(cpu, "MOV.B @R4+, R5")
    assert (cpu.regs[5], cpu.regs[4]) == (0x0A, 0x2101)


def test_word_autoincrement_steps_two():
    cpu = make_cpu()
    cpu.bus.write(0x2100, 0x1234)
    cpu.regs[4] = 0x2100
    execute(cpu, "MOV @R4+, R5")
    assert (cpu.regs[5], cpu.regs[4]) == (0x1234, 0x2102)


def test_sp_autoincrement_always_word():
    cpu = make_cpu()
    cpu.bus.write(0x2FFE, 0x0042)
    cpu.regs[SP] = 0x2FFE
    execute(cpu, "MOV.B @SP+, R5")
    assert cpu.regs[SP] == 0x3000


# -- stack and calls ---------------------------------------------------------------------------


def test_push_pop_round_trip():
    cpu = make_cpu()
    cpu.regs[4] = 0xBEEF
    execute(cpu, "PUSH R4")
    assert cpu.regs[SP] == 0x2FFE
    assert cpu.bus.memory.read_word(0x2FFE) == 0xBEEF
    execute(cpu, "POP R5")
    assert cpu.regs[5] == 0xBEEF
    assert cpu.regs[SP] == 0x3000


def test_call_pushes_return_and_jumps():
    cpu = make_cpu()
    cpu.regs[PC] = 0x8004  # as if the CALL was fetched at 0x8000
    execute(cpu, "CALL #0x9000")
    assert cpu.regs[PC] == 0x9000
    assert cpu.bus.memory.read_word(cpu.regs[SP]) == 0x8004


def test_call_through_absolute_is_indirect():
    cpu = make_cpu()
    cpu.bus.write(0x9800, 0x8123 & 0xFFFE)
    execute(cpu, "CALL &0x9800")
    assert cpu.regs[PC] == 0x8122


def test_call_to_odd_address_faults():
    cpu = make_cpu()
    with pytest.raises(SimulationError):
        execute(cpu, "CALL #0x9001")


def test_reti_restores_sr_and_pc():
    cpu = make_cpu()
    cpu.regs[SP] = 0x2FFC
    cpu.bus.write(0x2FFC, 0x0005)  # SR
    cpu.bus.write(0x2FFE, 0x8100)  # PC
    execute(cpu, "RETI")
    assert cpu.regs[SR] == 0x0005
    assert cpu.regs[PC] == 0x8100
    assert cpu.regs[SP] == 0x3000


# -- jumps -------------------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "setup,jump,taken",
    [
        ("CMP #5, R4", "JEQ", True),  # R4 == 5
        ("CMP #6, R4", "JEQ", False),
        ("CMP #6, R4", "JNE", True),
        ("CMP #6, R4", "JL", True),  # 5 < 6 signed
        ("CMP #6, R4", "JGE", False),
        ("CMP #4, R4", "JGE", True),
        ("CMP #6, R4", "JLO", True),  # unsigned
        ("CMP #4, R4", "JHS", True),
    ],
)
def test_conditional_jumps(setup, jump, taken):
    cpu = make_cpu()
    cpu.regs[4] = 5
    execute(cpu, setup)
    cpu.regs[PC] = 0x8000
    cpu._jump(_canonical(jump), 0x8100)
    assert (cpu.regs[PC] == 0x8100) == taken


def _canonical(mnemonic):
    from repro.isa.instructions import JUMP_CONDITIONS, JUMP_MNEMONICS

    return JUMP_MNEMONICS[JUMP_CONDITIONS[mnemonic]]


def test_signed_vs_unsigned_branching():
    cpu = make_cpu()
    cpu.regs[4] = 0x8000  # -32768 signed, 32768 unsigned
    execute(cpu, "CMP #1, R4")
    cpu.regs[PC] = 0x8000
    cpu._jump("JL", 0x8100)  # signed: -32768 < 1
    assert cpu.regs[PC] == 0x8100
    execute(cpu, "CMP #1, R4")
    cpu.regs[PC] = 0x8000
    cpu._jump(_canonical("JLO"), 0x8100)  # unsigned: 32768 >= 1 -> not taken
    assert cpu.regs[PC] == 0x8000


# -- full-program behaviours ----------------------------------------------------------------------


def test_program_loop_and_memory():
    words = run_main(
        """
        .func main
            MOV #0, R12
            MOV #5, R14
        .Lloop:
            ADD R14, R12
            DEC R14
            JNZ .Lloop
            RET
        .endfunc
        """
    )
    assert words == [15]


def test_nested_calls_preserve_stack():
    words = run_main(
        """
        .func main
            MOV #3, R12
            CALL #double
            CALL #double
            RET
        .endfunc
        .func double
            ADD R12, R12
            RET
        .endfunc
        """
    )
    assert words == [12]


def test_self_modifying_code_decoded_fresh():
    """Rewriting an instruction's immediate must take effect immediately --
    the property SwapRAM's call-site redirection relies on."""
    words = run_main(
        """
        .func main
            MOV #1, &patch+2   ; rewrite the MOV #0 below into MOV #1...
            NOP
        patch:
            MOV #4369, R12     ; 4369 = 0x1111, replaced by the write above
            RET
        .endfunc
        """
    )
    assert words == [1]


def test_hook_intercepts_execution():
    from repro.asm import SectionLayout, assemble, parse_asm

    program = parse_asm(
        """
        .func __start
            MOV #0x3000, SP
            CALL #0x8100
            MOV R12, &0x0200
            MOV #1, &0x0202
        .endfunc
        """,
        entry="__start",
    )
    image = assemble(
        program, SectionLayout(text=0x8000, rodata=0x9000, data=0x9800, bss=0x9C00)
    )
    board = fr2355_board().load(image)

    def hook(cpu):
        cpu.regs[12] = 0x77
        # Behave like RET: pop the return address.
        cpu.regs[PC] = cpu.bus.read(cpu.regs[SP])
        cpu.regs[SP] = (cpu.regs[SP] + 2) & 0xFFFF

    board.add_hook(0x8100, hook)
    result = board.run()
    assert result.debug_words == [0x77]


def test_runaway_program_raises():
    with pytest.raises(SimulationError, match="halt"):
        run_asm(
            """
            .func __start
            spin:
                JMP spin
            .endfunc
            """,
            entry="__start",
            max_instructions=1000,
        )


# -- decode-cache invalidation ---------------------------------------------------
#
# The decode cache memoises (snapshot, execute, instruction, length,
# cycles) per PC -- ``execute`` is the instruction's executor, bound at
# decode -- and revalidates the snapshot against live memory bytes on
# every hit. These regressions pin the two ways SwapRAM rewrites live
# SRAM under the cache -- whole-function memcpy into a cache slot, and
# relocation patching of an already-copied instruction -- that a
# rewrite to a different opcode rebinds the executor, plus the
# cold-cache guarantee across a power cycle.


def _write_instruction(memory, address, text):
    """Assemble one instruction at *address*; returns its byte length."""
    from repro.isa.encoding import encode_instruction

    words = encode_instruction(parse_instruction(text), address, {})
    for index, word in enumerate(words):
        memory.write_word(address + 2 * index, word)
    return 2 * len(words)


def test_decode_cache_invalidated_by_memcpy_over_sram():
    """SwapRAM evicts function A and memcpys function B into the same
    SRAM slot: re-executing the slot address must decode B, never the
    cached decode of A."""
    board = fr2355_board()
    cpu, memory = board.cpu, board.memory
    slot = 0x2100
    length = _write_instruction(memory, slot, "MOV #0x1111, R12")
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x1111
    assert slot in cpu._decode_cache  # it was cached...

    staging = 0x2200
    _write_instruction(memory, staging, "MOV #0x2222, R12")
    memory.write_bytes(slot, bytes(memory.read_bytes(staging, length)))
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x2222  # ...but the copy invalidated it


def test_decode_cache_invalidated_by_reloc_patch():
    """Relocation patching rewrites one operand word of an instruction
    already executed (and therefore cached) at its SRAM home."""
    board = fr2355_board()
    cpu, memory = board.cpu, board.memory
    slot = 0x2100
    _write_instruction(memory, slot, "MOV #0x1111, R12")
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x1111

    memory.write_word(slot + 2, 0x2222)  # patch the immediate in place
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x2222


def test_decode_cache_rebinds_executor_on_opcode_rewrite():
    """An in-place rewrite to another opcode of the same length must run
    the new instruction's executor, not the one bound at first decode."""
    board = fr2355_board()
    cpu, memory = board.cpu, board.memory
    slot = 0x2100
    length = _write_instruction(memory, slot, "MOV #0x1111, R12")
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x1111

    assert _write_instruction(memory, slot, "ADD #0x1111, R12") == length
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[12] == 0x2222


def test_decode_cache_rewritten_jump_flips_branch():
    """JMP rewritten in place to JNE with Z set: the cached JMP was
    taken, the new JNE is not."""
    board = fr2355_board()
    cpu, memory = board.cpu, board.memory
    slot, target = 0x2100, 0x2110
    _write_instruction(memory, slot, f"JMP {target:#x}")
    cpu.regs[SR] = 0x0002  # Z
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[PC] == target

    _write_instruction(memory, slot, f"JNE {target:#x}")
    cpu.regs[PC] = slot
    cpu.step()
    assert cpu.regs[PC] == slot + 2


def test_decode_cache_dropped_across_power_cycle():
    """A rebooted machine decodes cold: power_cycle() clears the decode
    cache along with the architectural reset, and the program still
    re-runs correctly from persistent FRAM."""
    board = run_asm(
        """
        .func __start
            MOV #7, R12
            MOV R12, &0x0200
            MOV #1, &0x0202
        .endfunc
        """,
        entry="__start",
    )
    assert board.bus.debug_words == [7]
    assert board.cpu._decode_cache  # warm after the first run
    board.power_cycle()
    assert board.cpu._decode_cache == {}
    board.run()
    assert board.bus.debug_words == [7, 7]


def test_swapram_recache_over_same_slot_decodes_fresh():
    """End to end: two functions thrash one SwapRAM cache slot, so the
    same SRAM addresses hold different code bytes over the run. Stale
    decodes would compute garbage; the snapshot check keeps it exact."""
    from repro.core import build_swapram
    from repro.toolchain import PLANS

    source = """
    int inc(int x) {
        int i;
        for (i = 0; i < 3; i++) {
            x = x + 1;
        }
        return x;
    }

    int dbl(int x) {
        int i;
        for (i = 0; i < 2; i++) {
            x = x + x;
        }
        return x;
    }

    int main(void) {
        int total = 0;
        int round;
        for (round = 0; round < 4; round++) {
            total = total + inc(round) + dbl(round);
        }
        __debug_out((unsigned)total);
        return 0;
    }
    """
    system = build_swapram(source, PLANS["unified"], cache_limit=0x60)
    result = system.run()
    assert result.debug_words == [42]  # sum of (r+3) + 4r for r in 0..3
    assert system.stats.evictions > 0  # the slot really was recycled


def test_pc_history_tracks_last_three():
    board = run_asm(
        """
        .func __start
            NOP
            NOP
            MOV #1, &0x0202
        .endfunc
        """,
        entry="__start",
    )
    history = board.cpu.pc_history
    assert history[0] == 0x8004  # the halting MOV
    assert history[1] == 0x8002
    assert history[2] == 0x8000
