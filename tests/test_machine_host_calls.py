"""Host cost per guest instruction, as a deterministic count.

Wall-clock is too noisy to gate, but the number of Python-level calls
the interpreter makes per simulated instruction repeats exactly from
run to run. ``sys.setprofile`` counts every Python function call and
every builtin call (``call`` and ``c_call`` events) over one run of crc;
the gate holds the interpreter's hot path -- decode-cache hit, executor,
bus, FRAM-cache timing, accounting -- at or below its budget.
"""

import sys

import pytest

from repro.bench import get_benchmark
from repro.core import build_swapram
from repro.toolchain import PLANS, build_baseline

#: Calls per guest instruction allowed on crc. At the time of writing
#: the counts are 16.3 for baseline and 13.7 for SwapRAM, the same on
#: Python 3.10, 3.11 and 3.12.
CALLS_PER_INSTRUCTION_BUDGET = 25


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
