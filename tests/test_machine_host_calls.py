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
lookups run inline while no data cache is attached; measured on crc
under Python 3.11, 2.94 calls per instruction for baseline and 1.97 for
SwapRAM, gated at <= 4.

Observed runs take the block path too. crc under SwapRAM with a
``TraceSession`` and a ``TraceLog`` attached, as ``repro trace
--accesses`` runs it, has a gate of its own: measured on crc under
Python 3.11, 7.08 calls per instruction (24.1 on the step loop), gated
at <= 8.
"""

import sys

import pytest

from repro import systems
from repro.bench import get_benchmark
from repro.core import build_swapram
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

#: Calls per guest instruction allowed on traced crc on the block path.
TRACED_CALLS_PER_INSTRUCTION_BUDGET = 8


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
    elif board.observers:
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


def test_traced_crc_block_path_calls_per_instruction_within_budget():
    system = build_swapram(get_benchmark("crc").source, PLANS["unified"])
    session = TraceSession.attach(system)
    log = TraceLog(system.board.bus, capacity=32).attach()
    calls = calls_per_instruction(system)
    log.detach()
    session.finish()
    assert calls <= TRACED_CALLS_PER_INSTRUCTION_BUDGET
