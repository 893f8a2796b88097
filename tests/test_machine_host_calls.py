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
on crc under Python 3.11: 16.3 calls per instruction for baseline,
13.7 for SwapRAM, 15.4 for datacache-wt and 14.6 for datacache-wb
(15.9 and 15.0 while every access also fed the sequence detector,
which no registry entry reads: their ``seq_cutoff_lines`` is 0).
"""

import sys

import pytest

from repro import systems
from repro.bench import get_benchmark
from repro.core import build_swapram
from repro.toolchain import PLANS, build_baseline

#: Calls per guest instruction allowed on crc.
CALLS_PER_INSTRUCTION_BUDGET = 25

#: Calls per guest instruction allowed on crc under a data cache.
DATACACHE_CALLS_PER_INSTRUCTION_BUDGET = 18


def calls_per_instruction(system):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = system.run()
    finally:
        sys.setprofile(None)
    return calls / result.instructions


@pytest.mark.parametrize("build", [build_baseline, build_swapram])
def test_crc_calls_per_instruction_within_budget(build):
    system = build(get_benchmark("crc").source, PLANS["unified"])
    assert calls_per_instruction(system) <= CALLS_PER_INSTRUCTION_BUDGET


@pytest.mark.parametrize("name", ["datacache-wt", "datacache-wb"])
def test_crc_data_cache_calls_per_instruction_within_budget(name):
    system = systems.build(name, get_benchmark("crc").source, PLANS["unified"])
    assert calls_per_instruction(system) <= DATACACHE_CALLS_PER_INSTRUCTION_BUDGET
