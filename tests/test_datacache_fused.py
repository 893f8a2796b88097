"""A data cache under unblown power fuses runs exactly like a plain one.

Fused counters clear ``bus_tallies``, so every access the data cache
serves is recorded through ``record_data`` instead of the bus's flat
tally: the path fault sweeps and the cycle watchdog take. With the
cycle fuse armed far past the run's end, nothing may differ from a plain
run: the result, the tallies, the cache's stats or the final memory.
"""

import pytest

from repro import systems
from repro.bench import get_benchmark
from repro.machine import FusedAccessCounters
from repro.toolchain import PLANS

DATA_CACHES = [
    entry.name for entry in systems.SPECS if entry.capture_kind == "datacache"
]


def _run(name, program, **board_kwargs):
    source = get_benchmark(program).source
    system = systems.build(name, source, PLANS["unified"], **board_kwargs)
    result = system.run()
    counters = system.board.counters
    return {
        "result": result.as_dict(),
        "accesses": list(counters.access_counts),
        "instructions": list(counters.instruction_counts),
        "cycles": list(counters.cycle_counts),
        "stalls": counters.stall_cycles,
        "stats": system.stats.as_dict(),
        "memory": bytes(system.board.memory.data),
    }


def test_every_data_cache_entry_is_covered():
    assert DATA_CACHES == ["datacache-wt", "datacache-wb", "datacache-acp"]


@pytest.mark.parametrize("program", ["crc", "rc4"])
@pytest.mark.parametrize("name", DATA_CACHES)
def test_an_unblown_fuse_changes_nothing(name, program):
    fused = FusedAccessCounters()
    fused.cycle_fuse = 10**12
    assert _run(name, program, counters=fused) == _run(name, program)
    assert fused.cycle_fuse == 10**12  # armed the whole run, never blew
