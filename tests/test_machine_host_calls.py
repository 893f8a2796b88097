"""Host cost per guest instruction, as a deterministic count.

Wall-clock is too noisy to gate, but the number of Python-level calls
the interpreter makes per simulated instruction repeats exactly from
run to run. ``sys.setprofile`` counts every Python function call and
every builtin call (``call`` and ``c_call`` events) over one run of crc;
the gate holds the interpreter's hot path -- decode-cache hit, executor,
bus, FRAM-cache timing, accounting -- at or below its budget.

The data-cache systems get a budget of their own: a hit is one set scan
in the model and a direct SRAM access in the runtime, so a data access
served from the cache costs about what an uncached one does. Measured
on crc under Python 3.11: 16.26 calls per instruction for baseline,
13.71 for SwapRAM, 15.40 for datacache-wt and 14.57 for datacache-wb.

``system.run()`` takes the block path (``repro.machine.block``) unless
a fuse or watchdog is armed, observed or not. The step-loop gates above
select the step loop with ``Cpu._step_loop``, so they measure it at its
own cost, and check that ``Cpu.step`` ran for every instruction. The
block path has its own gate. Its FRAM data accesses and FRAM read cache
lookups run inline; measured on crc under Python 3.11, 2.90 calls per
instruction for baseline and 1.91 for SwapRAM (2.94 and 1.97 before the
encoding table below), gated at <= 4.

Under a data cache, a block calls the runtime's ``app_read``/
``app_write`` itself for a FRAM address the cache covers and does any
other FRAM access inline, and only stores re-check the block's bytes.
Measured on crc under Python 3.11: 3.99 calls per instruction for
datacache-wt and 3.15 for datacache-wb, gated at <= 4.25 and <= 3.35.
Going through ``bus.read``/``bus.write``, with every memory access
re-checking the block's bytes, took 4.44 and 3.59.

Observed runs take the block path too. crc under SwapRAM with a
``TraceSession`` and a ``TraceLog`` attached, as ``repro trace
--accesses`` runs it, has a gate of its own: measured on crc under
Python 3.11, 7.02 calls per instruction (7.08 before the encoding
table, 24.1 on the step loop), gated at <= 8.

Building blocks has a gate of its own: the calls made inside
``block._build`` per compiled instruction (one ``block._compile``) on
crc, cold and warm. Cold runs with the process-wide encoding table
cleared; warm runs a second board of the same program, where every
encoding is in the table and compiling only binds a closure. Measured
in a fresh process under Python 3.11: 33.46 cold and 12.23 warm for
baseline, 28.51 and 11.19 for SwapRAM; gated at <= 36 cold and <= 14
warm. Decoding and analysing every (pc, bytes) pair afresh, as before
the table, took 68.9 and 57.1 (baseline), 62.4 and 53.7 (SwapRAM).
"""

import sys

import pytest

from repro import systems
from repro.bench import get_benchmark
from repro.core import build_swapram
from repro.machine import block
from repro.machine.cpu import Cpu
from repro.machine.tracelog import TraceLog
from repro.obs import TraceSession
from repro.toolchain import PLANS, build_baseline

#: Calls per guest instruction allowed on crc.
CALLS_PER_INSTRUCTION_BUDGET = 25

#: Calls per guest instruction allowed on crc under a data cache.
DATACACHE_CALLS_PER_INSTRUCTION_BUDGET = 18

#: Calls per guest instruction allowed on crc on the block path.
BLOCK_CALLS_PER_INSTRUCTION_BUDGET = 4

#: Calls per guest instruction allowed on crc on the block path under a
#: data cache.
DATACACHE_BLOCK_CALLS_PER_INSTRUCTION_BUDGET = {
    "datacache-wt": 4.25,
    "datacache-wb": 3.35,
}

#: Calls per guest instruction allowed on traced crc on the block path.
TRACED_CALLS_PER_INSTRUCTION_BUDGET = 8

#: Calls per compiled instruction allowed in block construction on crc,
#: with the encoding table cleared and with every encoding in it.
COLD_CONSTRUCTION_CALLS_BUDGET = 36
WARM_CONSTRUCTION_CALLS_BUDGET = 14


def calls_per_instruction(system, step_loop=False):
    """Calls per instruction over one run; *step_loop* selects the step
    loop and checks that ``Cpu.step`` ran for every instruction."""
    board = getattr(system, "board", system)  # build_baseline gives a Board
    if step_loop:
        board.cpu._step_loop = True
    step_code = Cpu.step.__code__
    calls = steps = 0

    def profile(frame, event, arg):
        nonlocal calls, steps
        if event == "call" or event == "c_call":
            calls += 1
            if frame.f_code is step_code:
                steps += 1

    sys.setprofile(profile)
    try:
        result = system.run()
    finally:
        sys.setprofile(None)
    if step_loop:
        assert steps >= result.instructions
    elif board.observers or board.bus.data_cache is not None:
        # With a write-back data cache, code in its window's lines runs
        # on the step loop.
        assert steps < result.instructions  # the block path ran
    else:
        assert steps == 0
    return calls / result.instructions


@pytest.mark.parametrize("build", [build_baseline, build_swapram])
def test_crc_calls_per_instruction_within_budget(build):
    system = build(get_benchmark("crc").source, PLANS["unified"])
    calls = calls_per_instruction(system, step_loop=True)
    assert calls <= CALLS_PER_INSTRUCTION_BUDGET


@pytest.mark.parametrize("name", ["datacache-wt", "datacache-wb"])
def test_crc_data_cache_calls_per_instruction_within_budget(name):
    system = systems.build(name, get_benchmark("crc").source, PLANS["unified"])
    calls = calls_per_instruction(system, step_loop=True)
    assert calls <= DATACACHE_CALLS_PER_INSTRUCTION_BUDGET


@pytest.mark.parametrize("build", [build_baseline, build_swapram])
def test_crc_block_path_calls_per_instruction_within_budget(build):
    system = build(get_benchmark("crc").source, PLANS["unified"])
    assert calls_per_instruction(system) <= BLOCK_CALLS_PER_INSTRUCTION_BUDGET


@pytest.mark.parametrize("name", ["datacache-wt", "datacache-wb"])
def test_crc_data_cache_block_path_calls_per_instruction_within_budget(name):
    system = systems.build(name, get_benchmark("crc").source, PLANS["unified"])
    calls = calls_per_instruction(system)
    assert calls <= DATACACHE_BLOCK_CALLS_PER_INSTRUCTION_BUDGET[name]


def test_traced_crc_block_path_calls_per_instruction_within_budget():
    system = build_swapram(get_benchmark("crc").source, PLANS["unified"])
    session = TraceSession.attach(system)
    log = TraceLog(system.board.bus, capacity=32).attach()
    calls = calls_per_instruction(system)
    log.detach()
    session.finish()
    assert calls <= TRACED_CALLS_PER_INSTRUCTION_BUDGET


def construction_calls(system):
    """Calls made inside ``block._build`` per compiled instruction over
    one run on the block path."""
    build_code = block._build.__code__
    compile_code = block._compile.__code__
    depth = calls = compiles = 0

    def profile(frame, event, arg):
        nonlocal depth, calls, compiles
        if event == "call":
            code = frame.f_code
            if code is build_code:
                depth += 1
            elif depth:
                calls += 1
                compiles += code is compile_code
        elif event == "c_call":
            calls += depth > 0
        elif event == "return" and frame.f_code is build_code:
            depth -= 1

    sys.setprofile(profile)
    try:
        system.run()
    finally:
        sys.setprofile(None)
    return calls / compiles


@pytest.mark.parametrize("build", [build_baseline, build_swapram])
def test_crc_block_construction_calls_within_budget(build):
    source = get_benchmark("crc").source
    block._clear()
    cold = construction_calls(build(source, PLANS["unified"]))
    warm = construction_calls(build(source, PLANS["unified"]))
    assert cold <= COLD_CONSTRUCTION_CALLS_BUDGET
    assert warm <= WARM_CONSTRUCTION_CALLS_BUDGET
