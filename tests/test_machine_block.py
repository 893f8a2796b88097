"""The block path of ``Cpu.run`` against the step loop it replaces.

``Cpu.run`` takes the block path (:mod:`repro.machine.block`) while the
counters tally on the bus, whatever seam subscribers are attached;
``Cpu._step_loop`` selects the step loop, which is the reference. Every
test here runs the same thing both ways and requires the same machine
state afterwards -- and, with observers attached, the same event
stream and stamps, the same profiles, call tree and Perfetto document,
the same access-log rings and the same captured traces.
"""

import hashlib
import json

import pytest

from repro import systems
from repro.asm import SectionLayout, assemble, parse_asm
from repro.bench import QUICK_NAMES, get_benchmark
from repro.difftest import generate_program
from repro.isa.registers import PC, SP
from repro.core import build_swapram
from repro.core.costs import DataCacheCostModel
from repro.datacache.cache import DataCacheConfig
from repro.datacache.runtime import DataCacheRuntime
from repro.machine import RunawayError, SimulationError, block, fr2355_board
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.fram_cache import FramReadCache
from repro.machine.memory import RegionKind
from repro.machine.observe import observe
from repro.machine.trace import Attribution
from repro.machine.tracelog import TraceLog
from repro.metrics.instrument import EventMetrics, MetricsSession
from repro.metrics.registry import MetricsRegistry
from repro.obs import TraceSession
from repro.obs.perfetto import perfetto_trace
from repro.obs.timeline import Timeline
from repro.replay.capture import _Recorder, capture
from repro.replay.schema import encode_events
from repro.toolchain import PLANS, FitError

#: (system, knobs) for every ``repro.systems`` entry, SwapRAM also
#: thrashing under the stack policy in a 0xC0-byte cache.
CONFIGURATIONS = (
    ("baseline", {}),
    ("swapram", {}),
    ("swapram", {"policy": "stack", "cache_limit": 0xC0}),
    ("blockcache", {}),
    ("datacache-wt", {}),
    ("datacache-wb", {}),
    ("datacache-acp", {}),
)

#: Generated programs beside the quick set (small, to keep tier-1 short).
DIFFTEST_SEEDS = range(8)


def reference(board):
    """Make *board*'s runs take the step loop."""
    board.cpu._step_loop = True


def observables(system):
    """Everything a run leaves that the two paths must agree on."""
    board = system.board
    counters = board.counters
    stats = getattr(system, "stats", None)
    return {
        "result": board.result().as_dict(),
        "access_counts": list(counters.access_counts),
        "instruction_counts": list(counters.instruction_counts),
        "cycle_counts": list(counters.cycle_counts),
        "stall_cycles": counters.stall_cycles,
        "stats": stats.as_dict() if stats is not None else None,
        "fram_cache": board.bus.fram_cache.as_dict(),
        "memory": bytes(board.memory.data),
        "pc_history": list(board.cpu.pc_history),
        "instructions_retired": board.cpu.instructions_retired,
        "regs": list(board.cpu.regs),
    }


def first_divergence(block, step):
    for key in block:
        if block[key] != step[key]:
            return key
    return None


def _programs():
    programs = [(name, get_benchmark(name).source) for name in QUICK_NAMES]
    for seed in DIFFTEST_SEEDS:
        programs.append((f"dt{seed}", generate_program(seed, "small").render()))
    return programs


# -- observed runs -------------------------------------------------------------------

#: The access logs an observed run attaches, both wrapping many times
#: over: an unfiltered one and one with a kind and a region filter. The
#: capture recorder sees the whole application access stream.
ACCESS_LOGS = {
    "unfiltered": {"capacity": 4096},
    "filtered": {
        "capacity": 256,
        "kinds": {"read", "write"},
        "regions": {RegionKind.FRAM},
    },
}


def _log_view(log):
    return log.sequence, [tuple(vars(event).values()) for event in log.events]


def _observed_run(name, knobs, source, step_loop, step_calls):
    """Run with every production observer attached -- a trace session
    (collector and timeline), the access logs, the capture recorder and
    a metrics session; returns what they recorded, or ``None`` on a
    DNF."""
    try:
        system = systems.build(name, source, PLANS["unified"], **knobs)
    except FitError:
        return None
    board = system.board
    session = TraceSession.attach(system)
    logs = {key: TraceLog(board.bus, **kw).attach() for key, kw in ACCESS_LOGS.items()}
    kind = systems.spec(name).capture_kind
    recorder = observe(board, _Recorder(kind, board, system.runtime))
    metrics = MetricsSession.attach(system)
    if step_loop:
        reference(board)
    step_calls[0] = 0
    result = system.run()
    retired = board.cpu.instructions_retired
    if step_loop:
        assert step_calls[0] >= retired
    else:
        assert step_calls[0] < retired  # the block path ran
    for log in logs.values():
        log.detach()
    session.finish(result)
    recorder.finish(result)
    metrics.finish(result)
    observed = observables(system)
    observed |= {
        "profiles": {key: p.as_dict() for key, p in session.profiles.items()},
        "call_tree": session.call_tree.as_dict(),
        "perfetto": json.dumps(perfetto_trace(session), sort_keys=True),
        "capture": hashlib.sha256(encode_events(recorder.records)).hexdigest(),
        "metrics": {
            key: metric
            for key, metric in metrics.registry.as_dict().items()
            if not key.startswith("host.")
        },
    }
    for key, log in logs.items():
        observed[f"log:{key}"] = _log_view(log)
    return observed


@pytest.mark.parametrize(
    "name, knobs",
    CONFIGURATIONS,
    ids=["-".join([name, *map(str, knobs.values())]) for name, knobs in CONFIGURATIONS],
)
def test_block_path_matches_step_loop(name, knobs, step_calls):
    """The block path, unobserved and with every production observer
    attached, against the observed step loop. Observers never change
    what the machine does (tests/test_machine_observe.py), so one
    reference run serves both."""
    cells = 0
    for program, source in _programs():
        step = _observed_run(name, knobs, source, True, step_calls)
        if step is None:
            continue  # a DNF on both paths alike
        cells += 1
        where = f"{name} {knobs} on {program}"
        system = systems.build(name, source, PLANS["unified"], **knobs)
        system.run()
        key = first_divergence(observables(system), step)
        assert key is None, f"{where}: {key} diverges first"
        block = _observed_run(name, knobs, source, False, step_calls)
        key = first_divergence(block, step)
        assert key is None, f"{where}, observed: {key} diverges first"
    assert cells >= len(QUICK_NAMES)


@pytest.fixture
def step_calls(monkeypatch):
    """Count ``Cpu.step`` calls; returns the one-item count list."""
    calls = [0]
    step = Cpu.step

    def counted(cpu):
        calls[0] += 1
        return step(cpu)

    monkeypatch.setattr(Cpu, "step", counted)
    return calls


def _event_run(name, knobs, source, step_loop, step_calls):
    """Run with a timeline and an event-metrics registry attached;
    returns ``(events, registry, observables)``, or ``None`` on a DNF."""
    try:
        system = systems.build(name, source, PLANS["unified"], **knobs)
    except FitError:
        return None
    board = system.board
    timeline = observe(board, Timeline(board))
    registry = MetricsRegistry()
    observe(board, EventMetrics(registry))
    if step_loop:
        reference(board)
    step_calls[0] = 0
    system.run()
    retired = board.cpu.instructions_retired
    if step_loop:
        assert step_calls[0] >= retired
    else:
        assert step_calls[0] < retired  # the block path ran
    events = [(event.cycle, event.kind, vars(event)) for event in timeline.events]
    return events, registry.as_dict(), observables(system)


@pytest.mark.parametrize(
    "name, knobs",
    CONFIGURATIONS,
    ids=["-".join([name, *map(str, knobs.values())]) for name, knobs in CONFIGURATIONS],
)
def test_event_subscribers_keep_the_block_path_exactly(name, knobs, step_calls):
    cells = stamped = 0
    for program, source in _programs():
        block = _event_run(name, knobs, source, False, step_calls)
        if block is None:
            continue  # a DNF on both paths alike
        step = _event_run(name, knobs, source, True, step_calls)
        cells += 1
        where = f"{name} {knobs} on {program}"
        events, reference = block[0], step[0]
        stamped += len(events)
        for index, (got, want) in enumerate(zip(events, reference)):
            assert got == want, f"{where}: event {index} is {got}, step loop {want}"
        assert len(events) == len(reference), f"{where}: event count differs"
        assert block[1] == step[1], f"{where}: metrics registry diverges"
        key = first_divergence(block[2], step[2])
        assert key is None, f"{where}: {key} diverges first"
    assert cells >= len(QUICK_NAMES)
    assert stamped or name == "baseline"  # every runtime reports events


@pytest.mark.parametrize("name", ["baseline", "swapram", "blockcache", "datacache-wt"])
def test_capture_bytes_match_the_step_loop(name, monkeypatch):
    source = get_benchmark("crc").source
    block, _, _ = capture(systems.RunSpec(source, name), "crc")
    monkeypatch.setattr(Cpu, "_step_loop", True)
    step, _, _ = capture(systems.RunSpec(source, name), "crc")
    assert block.to_bytes() == step.to_bytes()


# -- edge cases under cpu.run() -----------------------------------------------------


#: The layout of the asm programs here.
LAYOUT = SectionLayout(text=0x8000, rodata=0x9000, data=0x9800, bss=0x9C00)


def _board(source, hooks=(), layout=LAYOUT, attach=None):
    program = parse_asm(source, entry="__start")
    image = assemble(program, layout)
    board = fr2355_board().load(image)
    for address, hook in hooks:
        board.add_hook(address, hook)
    if attach is not None:
        attach(board)
    return board


def both_ways(source, hooks=(), max_instructions=100_000, layout=LAYOUT, attach=None):
    """Run *source* on the block path and on the step loop; returns
    ``(error, board)`` per path, *error* being what ``cpu.run`` raised.
    *attach*, if given, is called with each board after it is loaded."""
    outcomes = []
    for step_loop in (False, True):
        board = _board(source, hooks, layout, attach)
        if step_loop:
            reference(board)
        error = None
        try:
            board.cpu.run(max_instructions=max_instructions)
        except SimulationError as raised:
            error = raised
        outcomes.append((error, board))
    return outcomes


def machine_state(board):
    counters = board.counters
    return (
        list(board.cpu.regs),
        list(board.cpu.pc_history),
        board.cpu.instructions_retired,
        list(counters.access_counts),
        list(counters.instruction_counts),
        list(counters.cycle_counts),
        counters.stall_cycles,
        board.bus.fram_cache.as_dict(),
        board.bus._fram_touches,
        list(board.bus.debug_words),
        bytes(board.memory.data),
    )


def assert_same(outcomes):
    (block_error, block), (step_error, step) = outcomes
    assert type(block_error) is type(step_error)
    assert str(block_error) == str(step_error)
    assert machine_state(block) == machine_state(step)
    return block_error, block


def test_store_rewrites_a_later_instruction_of_the_running_block():
    # Copy a routine to SRAM and run it: its first store patches the
    # immediate of the MOV right behind it, in the same block.
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV #0x2100, R5
                MOV #0x40B2, 0(R5)   ; 0x2100: MOV #0x3333, &0x2108
                MOV #0x3333, 2(R5)
                MOV #0x2108, 4(R5)
                MOV #0x403C, 6(R5)   ; 0x2106: MOV #0x1111, R12
                MOV #0x1111, 8(R5)
                MOV #0x4C82, 10(R5)  ; 0x210A: MOV R12, &0x0200
                MOV #0x0200, 12(R5)
                MOV #0x4392, 14(R5)  ; 0x210E: MOV #1, &0x0202
                MOV #0x0202, 16(R5)
                BR R5
            .endfunc
            """
        )
    )
    assert error is None
    assert board.bus.debug_words == [0x3333]

    # In FRAM: the store rewrites MOV #0x1111's immediate two
    # instructions ahead, inside one straight-line block.
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x2222, &patch+2
                NOP
            patch:
                MOV #0x1111, R12
                MOV R12, &0x0200
                MOV #1, &0x0202
            .endfunc
            """
        )
    )
    assert error is None
    assert board.bus.debug_words == [0x2222]


def _data_cache(mode, *window, ways=1):
    """An *attach* step for :func:`both_ways`: a data cache of one set of
    16-byte lines at 0x2400 over the FRAM *window*, ``(lo, hi)`` pairs."""

    def attach(board):
        config = DataCacheConfig(mode=mode, sets=1, ways=ways)
        runtime = DataCacheRuntime(
            board, config, window, 0x2400, 0xE000, DataCacheCostModel()
        )
        runtime.install()

    return attach


def test_load_rewrites_a_later_instruction_of_the_running_block():
    # From the line store: a routine copied into the cache's one line
    # slot loads from the window, and the fill overwrites the slot with
    # the same routine holding another immediate for MOV #0x1111.
    error, board = assert_same(
        both_ways(
            """
            .section .data
            image: .word 0x4216, 0x9800, 0x403C, 0x2222, 0x4C82, 0x0200, 0x4392, 0x0202
            .section .text
            .func __start
                MOV #0x3000, SP
                MOV #0x2400, R5
                MOV #0x4216, 0(R5)   ; 0x2400: MOV &0x9800, R6
                MOV #0x9800, 2(R5)
                MOV #0x403C, 4(R5)   ; 0x2404: MOV #0x1111, R12
                MOV #0x1111, 6(R5)
                MOV #0x4C82, 8(R5)   ; 0x2408: MOV R12, &0x0200
                MOV #0x0200, 10(R5)
                MOV #0x4392, 12(R5)  ; 0x240C: MOV #1, &0x0202
                MOV #0x0202, 14(R5)
                BR R5
            .endfunc
            """,
            attach=_data_cache("through", (0x9800, 0x9810)),
        )
    )
    assert error is None
    assert board.bus.debug_words == [0x2222]
    assert board.bus.data_cache.stats.fills == 1

    # From the window: a store puts a new immediate for MOV #0x1111 in
    # the cached copy of its line, and the load behind it evicts that
    # dirty line, whose writeback rewrites the instruction in FRAM.
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV #0x2222, &patch+2
                MOV &0x80F0, R6
            patch:
                MOV #0x1111, R12
                MOV R12, &0x0200
                MOV #1, &0x0202
            .endfunc
            """,
            attach=_data_cache("back", (0x8000, 0x8100)),
        )
    )
    assert error is None
    assert board.bus.debug_words == [0x2222]
    assert board.bus.data_cache.stats.writebacks >= 1


def test_write_back_keeps_a_store_to_the_window_edge_line():
    # The window starts 4 bytes into the line at 0x9800. A store to
    # 0x9800, outside the window but on a dirty cached line, must
    # survive that line's writeback when the load from 0x9904 evicts it.
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV &0x9804, R6
                MOV #0x5555, &0x9804
                MOV #0x1234, &0x9800
                MOV &0x9904, R6
                MOV &0x9800, R12
                MOV R12, &0x0200
                MOV #1, &0x0202
            .endfunc
            """,
            attach=_data_cache("back", (0x9804, 0x9810), (0x9904, 0x9910)),
        )
    )
    assert error is None
    assert board.bus.debug_words == [0x1234]
    assert board.bus.data_cache.stats.evict_writebacks == 1


def test_halt_store_mid_block_stops_there():
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #5, R12
                MOV #1, &0x0202
                MOV #6, R12
                MOV R12, &0x0200
            spin:
                JMP spin
            .endfunc
            """
        )
    )
    assert error is None
    assert board.cpu.regs[12] == 5
    assert board.cpu.instructions_retired == 2
    assert board.cpu.regs[PC] == 0x8008


def test_bus_error_mid_block_names_the_instruction():
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV #7, R12
                MOV #0x0501, R5
                MOV @R5, R6          ; misaligned word read
                MOV #1, &0x0202
            .endfunc
            """
        )
    )
    assert "misaligned word read at 0x0501" in str(error)
    assert "at PC=0x800c" in str(error)
    assert board.cpu.instructions_retired == 3


def test_runaway_raised_at_the_same_retired_count():
    for budget in (1, 2, 7, 100, 1001):
        outcomes = both_ways(
            """
            .func __start
                MOV #0, R5
            spin:
                ADD #1, R5
                MOV R5, R6
                XOR #3, R6
                JMP spin
            .endfunc
            """,
            max_instructions=budget,
        )
        error, board = assert_same(outcomes)
        assert isinstance(error, RunawayError)
        assert board.cpu.instructions_retired == budget


def test_hook_inside_straight_line_code():
    calls = []

    def hook(cpu):
        calls.append(cpu.pc_history[0])
        cpu.regs[12] += 100
        cpu.regs[PC] = 0x800A  # resume after the hooked word

    source = """
        .func __start
            MOV #1, R12
            ADD #2, R12
            ADD #3, R12
            ADD #4, R12
            MOV R12, &0x0200
            MOV #1, &0x0202
        .endfunc
    """
    # 0x8000 MOV #1, 0x8002 ADD #2, 0x8004 ADD #3 (two words), 0x8008
    # ADD #4, 0x800A MOV R12: the hook at 0x8008 skips ADD #4.
    hook_address = 0x8008
    error, board = assert_same(both_ways(source, hooks=[(hook_address, hook)]))
    assert error is None
    assert board.bus.debug_words == [1 + 2 + 3 + 100]
    assert calls == [0x8004, 0x8004]  # once per path, after ADD #3


def test_pc_history_at_block_exits():
    seen = []

    def hook(cpu):
        seen.append(tuple(cpu.pc_history))
        cpu.regs[PC] = cpu.bus.read(cpu.regs[SP])
        cpu.regs[SP] = (cpu.regs[SP] + 2) & 0xFFFF

    source = """
        .func __start
            MOV #0x3000, SP
            CALL #0x8100
            NOP
            CALL #0x8100
            JMP next
        next:
            CALL #0x8100
            MOV #1, &0x0202
        .endfunc
    """
    error, board = assert_same(both_ways(source, hooks=[(0x8100, hook)]))
    assert error is None
    half = len(seen) // 2
    assert seen[:half] == seen[half:]
    assert seen[0] == (0x8004, 0x8000, 0)
    assert seen[1] == (0x800A, 0x8008, 0x8004)


def test_power_cycle_drops_the_block_cache():
    # A run the budget stops keeps its blocks; a power cycle drops them,
    # and so does a halt.
    board = _board(
        """
        .func __start
            MOV #7, R12
            MOV R12, &0x0200
        spin:
            JMP spin
        .endfunc
        """
    )
    cpu = board.cpu
    with pytest.raises(RunawayError):
        cpu.run(max_instructions=100)
    assert cpu._blocks and cpu._entries
    board.power_cycle()
    assert cpu._blocks == {} and cpu._entries == {}
    with pytest.raises(RunawayError):
        cpu.run(max_instructions=100)
    assert board.bus.debug_words == [7, 7]

    halting = _board(
        """
        .func __start
            MOV #1, &0x0202
        .endfunc
        """
    )
    halting.run()
    assert halting.cpu._blocks == {} and halting.cpu._entries == {}


# -- inline FRAM accesses -------------------------------------------------------------


def test_fram_byte_load_and_store():
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV #0x9801, R5
                MOV.B #0x5A, 0(R5)   ; byte store to an odd FRAM address
                MOV.B #0xA5, &0x9800
                MOV.B @R5, R6        ; byte loads, odd and even
                MOV.B &0x9800, R7
                ADD.B R7, 0(R5)      ; byte read-modify-write
                MOV.B @R5+, R12
                MOV R12, &0x0200
                MOV R6, &0x0200
                MOV #1, &0x0202
            .endfunc
            """
        )
    )
    assert error is None
    assert board.bus.debug_words == [(0x5A + 0xA5) & 0xFF, 0x5A]
    assert board.memory.data[0x9800:0x9802] == bytes([0xA5, 0xFF])


@pytest.mark.parametrize(
    "access, message",
    [
        ("MOV @R5, R6", "misaligned word read"),
        ("MOV R6, 0(R5)", "misaligned word write"),
    ],
    ids=["load", "store"],
)
def test_misaligned_fram_word_access_mid_block(access, message):
    error, board = assert_same(
        both_ways(
            f"""
            .func __start
                MOV #0x3000, SP
                MOV &0x9800, R6      ; an aligned FRAM load first
                MOV #0x9801, R5
                {access}
                MOV #1, &0x0202
            .endfunc
            """
        )
    )
    assert f"{message} at 0x9801" in str(error)
    assert board.cpu.instructions_retired == 3


def test_store_to_a_cached_fram_line_then_fetch_from_it():
    # Each pass loads a word of the code below (caching its line),
    # stores it back (dropping the line) and then fetches from that
    # line; the data line at 0x9800 is loaded, stored and loaded again.
    error, board = assert_same(
        both_ways(
            """
            .func __start
                MOV #0x3000, SP
                MOV #3, R7
            again:
                MOV &patch, R6
                MOV R6, &patch
            patch:
                ADD #1, R8
                MOV &0x9800, R9
                MOV R8, &0x9802
                ADD &0x9800, R9
                SUB #1, R7
                JNZ again
                MOV R8, &0x0200
                MOV #1, &0x0202
            .endfunc
            """
        )
    )
    assert error is None
    assert board.bus.debug_words == [3]
    assert board.bus.fram_cache.invalidates >= 6


#: FRAM read cache geometries (sets, ways, line bytes) and clock rates
#: (wait states 0, 1 and 3) beside the defaults.
FRAM_TIMINGS = [
    ((4, 2, 8), 24),
    ((2, 4, 16), 24),
    (None, 8),
    (None, 16),
    (None, 24),
]


@pytest.mark.parametrize(
    "geometry, mhz",
    FRAM_TIMINGS,
    ids=[
        f"{'x'.join(map(str, geometry or ('default',)))}-{mhz}MHz"
        for geometry, mhz in FRAM_TIMINGS
    ],
)
def test_block_path_matches_step_loop_under_fram_timings(geometry, mhz):
    programs = [("crc", get_benchmark("crc").source)]
    for seed in (0, 1):
        programs.append((f"dt{seed}", generate_program(seed, "small").render()))
    for name in ("baseline", "swapram"):
        for program, source in programs:
            runs = []
            for step_loop in (False, True):
                system = systems.build(name, source, PLANS["unified"], mhz)
                if geometry is not None:
                    system.board.bus.fram_cache = FramReadCache(*geometry)
                if step_loop:
                    reference(system.board)
                system.run()
                runs.append(observables(system))
            key = first_divergence(*runs)
            assert key is None, f"{name} on {program}: {key} diverges first"


def test_fram_data_accesses_stay_off_the_bus_call_chain(monkeypatch):
    # Code, data and stack in FRAM, and only instructions blocks run
    # themselves (no CALL, whose executor is the step loop's): every
    # application FRAM data access and every fetch-line lookup runs
    # inline. Its data evicts the loop's code lines, so fetches miss.
    # With a write-back data cache over part of the data, the accesses
    # it covers go straight to its runtime, and its fills and writebacks
    # alone (not the application) take the bus.
    source = """
        .func __start
            MOV #0xA000, SP
            MOV #0x9800, R5
            MOV #20, R7
        again:
            MOV @R5+, R6
            ADD R6, &0x9900
            MOV.B R6, 0x100(R5)
            PUSH R6
            ADD.B @R5, R8
            MOV 0x40(R5), R9
            SUB #1, R7
            JNZ again
            MOV R8, &0x0200
            MOV #1, &0x0202
        .endfunc
    """
    data_cache = _data_cache("back", (0x9800, 0x9880), (0x9900, 0x9910), ways=2)
    for attach in (None, data_cache):
        board = _board(source, attach=attach)
        bus = board.bus
        calls = dict.fromkeys(["read", "write", "access", "invalidate"], 0)
        runtime_calls = {"app_read": 0, "app_write": 0}

        def spy(cls, name, counts):
            original = getattr(cls, name)

            def counted(self, address, *args, **kwargs):
                fram = cls is not Bus or bus._kinds[address] is RegionKind.FRAM
                if fram and bus.attribution is Attribution.APP:
                    counts[name] += 1
                return original(self, address, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        for cls, name in ((Bus, "read"), (Bus, "write")):
            spy(cls, name, calls)
        for name in ("access", "invalidate"):
            spy(FramReadCache, name, calls)
        for name in runtime_calls:
            spy(DataCacheRuntime, name, runtime_calls)
        board.cpu.run()
        fram_cache = bus.fram_cache
        assert calls == {"read": 0, "write": 0, "access": 0, "invalidate": 0}
        if attach is None:
            assert fram_cache.misses > 0 and fram_cache.invalidates > 0
        else:
            stats = bus.data_cache.stats
            assert stats.fills > 0 and stats.writebacks > 0
            assert runtime_calls["app_read"] > 0 and runtime_calls["app_write"] > 0
        monkeypatch.undo()
        error, block = assert_same(both_ways(source, attach=attach))
        assert error is None
        assert block.bus.fram_cache.as_dict() == fram_cache.as_dict()


# -- the encoding table -------------------------------------------------------------


@pytest.fixture
def fresh_encodings():
    """Start and leave the block path's encoding table empty."""
    block._clear()
    yield
    block._clear()


def _spy(monkeypatch, name):
    """Record the arguments of each call to ``block.<name>``."""
    calls = []
    original = getattr(block, name)

    def spied(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(block, name, spied)
    return calls


def test_same_bytes_at_three_pcs(fresh_encodings):
    # A routine with a conditional jump, a symbolic source and
    # destination and a CALL runs in place and from two SRAM copies:
    # the same bytes at three pcs, each jump target, operand address
    # and return address its own. The copies' symbolic cells fall in
    # SRAM, zero at first.
    layout = SectionLayout(text=0x8000, rodata=0x8C00, data=0x8800, bss=0x8E00)
    error, board = assert_same(
        both_ways(
            """
            .section .data
            cell: .word 5
            .section .text
            .func __start
                MOV #0x3000, SP
                CALL #routine
                MOV #0x2100, R14
                CALL #copy
                MOV #0x2180, R14
                CALL #copy
                MOV #1, &0x0202
            .endfunc
            .func copy
                MOV #routine, R12
                MOV R14, R13
            again:
                MOV @R12+, 0(R13)
                ADD #2, R13
                CMP #routine_end, R12
                JNE again
                CALL R14
                RET
            .endfunc
            .func routine
                MOV #3, R7
            loop:
                ADD cell, R8
                MOV R8, cell
                CALL #helper
                SUB #1, R7
                JNZ loop
                MOV R8, &0x0200
                RET
            .endfunc
            .func routine_end
                RET
            .endfunc
            .func helper
                ADD #1, R9
                RET
            .endfunc
            """,
            layout=layout,
        )
    )
    assert error is None
    assert board.bus.debug_words == [20, 80, 320]
    assert board.cpu.regs[9] == 9
    # The jump and the symbolic operands were analysed once per pc.
    pcs = {}
    for key in block._ENCODINGS:
        if isinstance(key, tuple):
            pcs.setdefault(key[1], set()).add(key[0])
    assert sum(len(at) == 3 for at in pcs.values()) >= 3


def test_program_after_one_sharing_its_encodings(fresh_encodings, monkeypatch):
    # A program compiled on a fresh board after another one has filled
    # the table runs as it does cold, and as the step loop runs it.
    analysed = _spy(monkeypatch, "_analyse")
    crc = get_benchmark("crc").source
    program = generate_program(0, "small").render()
    for name in ("baseline", "swapram"):
        runs = []
        for warm in (False, True):
            block._clear()
            if warm:
                systems.build(name, crc, PLANS["unified"]).run()
            del analysed[:]
            system = systems.build(name, program, PLANS["unified"])
            system.run()
            runs.append((observables(system), len(analysed)))
        (cold, cold_analysed), (warm, warm_analysed) = runs
        assert warm_analysed < cold_analysed  # the two share encodings
        system = systems.build(name, program, PLANS["unified"])
        reference(system.board)
        system.run()
        for got in (cold, warm):
            key = first_divergence(got, observables(system))
            assert key is None, f"{name}: {key} diverges first"


def _swapram_both_ways(knobs):
    runs = []
    for step_loop in (False, True):
        system = systems.build(
            "swapram", get_benchmark("crc").source, PLANS["unified"], **knobs
        )
        if step_loop:
            reference(system.board)
        system.run()
        runs.append(observables(system))
    return runs


def test_swapram_function_recopied_into_another_slot(fresh_encodings, monkeypatch):
    compiled = _spy(monkeypatch, "_compile")
    block_run, step_run = _swapram_both_ways({"policy": "stack", "cache_limit": 0xC0})
    key = first_divergence(block_run, step_run)
    assert key is None, f"{key} diverges first"
    pcs = {}
    for _env, code, pc, _end, kind, _relative in compiled:
        if kind is RegionKind.SRAM:
            pcs.setdefault(code, set()).add(pc)
    assert max(len(at) for at in pcs.values()) > 1


def test_run_across_a_table_start_over(fresh_encodings, monkeypatch):
    monkeypatch.setattr(block, "_ENCODING_ENTRIES", 8)
    analysed = _spy(monkeypatch, "_analyse")
    block_run, step_run = _swapram_both_ways({})
    key = first_divergence(block_run, step_run)
    assert key is None, f"{key} diverges first"
    assert len(analysed) > 8 * 4 and len(block._ENCODINGS) <= 8


class _Untouchable(dict):
    def _touched(self, *args):
        raise AssertionError("the step loop read the encoding table")

    get = __getitem__ = __contains__ = __setitem__ = _touched


def test_step_loop_never_reads_the_encoding_table(monkeypatch):
    monkeypatch.setattr(block, "_ENCODINGS", _Untouchable())
    monkeypatch.setattr(block, "_OPCODES", _Untouchable())
    system = build_swapram(get_benchmark("crc").source, PLANS["unified"])
    reference(system.board)
    system.run()
    assert system.board.cpu._decode_cache
