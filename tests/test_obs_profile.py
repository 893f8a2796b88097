"""Per-function attribution: exact cycle/energy/traffic decomposition."""

from functools import partial

import pytest

from repro.bench import get_benchmark
from repro.blockcache import build_blockcache
from repro.core import build_swapram
from repro.datacache import DataCacheConfig, build_datacache
from repro.machine import PowerFailure, install_fused_counters
from repro.obs import TraceSession
from repro.toolchain import PLANS, build_baseline

SOURCE = """
int helper(int x) { return x * 2; }
int other(int x) { return x + 7; }
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 6; i++) { acc = acc + helper(i) + other(i); }
    __debug_out(acc);
    return 0;
}
"""


def _trace(builder, **kwargs):
    target = builder(SOURCE, PLANS["unified"], **kwargs)
    session = TraceSession.attach(target)
    result = target.run()
    session.finish(result)
    return target, session, result


BUILDERS = {
    "baseline": build_baseline,
    "swapram": build_swapram,
    "blockcache": build_blockcache,
    # The data cache sits below the bus entry points, so these two check
    # that per-function traffic is read below it, where RunResult is.
    "datacache-wt": partial(
        build_datacache, config=DataCacheConfig(mode="through", cleaning="none")
    ),
    "datacache-wb": partial(build_datacache, config=DataCacheConfig()),
}


@pytest.fixture(params=sorted(BUILDERS), scope="module")
def traced(request):
    return _trace(BUILDERS[request.param])


def test_exclusive_cycles_sum_exactly_to_total(traced):
    _, session, result = traced
    assert session.collector.total_cycles == result.total_cycles


def test_stalls_sum_exactly_to_total_stalls(traced):
    _, session, result = traced
    total_stalls = sum(p.stalls for p in session.profiles.values())
    assert total_stalls == result.stall_cycles


def test_instructions_sum_exactly(traced):
    _, session, result = traced
    total = sum(p.instructions for p in session.profiles.values())
    assert total == result.instructions


def test_fram_traffic_sums_exactly(traced):
    _, session, result = traced
    fram = sum(p.fram_accesses for p in session.profiles.values())
    sram = sum(p.sram_accesses for p in session.profiles.values())
    assert fram == result.fram_accesses
    assert sram == result.sram_accesses
    energy = sum(
        p.as_dict(session.energy_model)["energy_nj"]
        for p in session.profiles.values()
    )
    assert energy == pytest.approx(result.energy_nj)


def test_energy_decomposes_exactly(traced):
    target, session, result = traced
    model = session.energy_model
    total = sum(p.energy_nj(model) for p in session.profiles.values())
    assert total == pytest.approx(result.energy_nj)


def test_attribution_split_covers_unstalled_cycles(traced):
    _, session, result = traced
    app = sum(p.app_cycles for p in session.profiles.values())
    run = sum(p.runtime_cycles for p in session.profiles.values())
    mem = sum(p.memcpy_cycles for p in session.profiles.values())
    assert app + run + mem == result.unstalled_cycles


def test_call_tree_inclusive_equals_total(traced):
    _, session, result = traced
    assert session.call_tree.inclusive == result.total_cycles


def test_application_functions_are_attributed(traced):
    _, session, _ = traced
    names = set(session.profiles)
    assert {"main", "helper", "other"} <= names
    helper = session.profiles["helper"]
    assert helper.calls >= 6
    assert helper.cycles > 0
    assert helper.instructions > 0


def test_swapram_runtime_work_lands_on_pseudo_function():
    system, session, _ = _trace(build_swapram)
    runtime_profile = session.profiles.get("__sr_runtime")
    assert runtime_profile is not None
    assert runtime_profile.runtime_cycles > 0
    assert runtime_profile.memcpy_cycles > 0
    # Application functions never execute handler-attributed cycles.
    assert session.profiles["helper"].runtime_cycles == 0


def test_blockcache_runtime_work_lands_on_pseudo_functions():
    system, session, _ = _trace(build_blockcache)
    assert session.profiles["__bb_runtime"].runtime_cycles > 0
    assert "__bb_stubs" in session.profiles


def test_cached_sram_execution_attributed_to_owner():
    system, session, result = _trace(build_swapram)
    helper = session.profiles["helper"]
    # helper executes from its SRAM copy after the first miss, so most
    # of its traffic must be SRAM, not FRAM -- the dynamic map resolved
    # the cache window to the right owner.
    assert system.stats.per_function_caches.get("helper")
    assert helper.sram_accesses > helper.fram_accesses


def test_detach_restores_cpu_and_bus():
    system = build_swapram(SOURCE, PLANS["unified"])
    board = system.board
    bus_entry_points = {
        "begin_instruction",
        "fetch_word",
        "account_fetch",
        "read",
        "write",
    }
    session = TraceSession.attach(system)
    assert "step" in vars(board.cpu)
    assert not bus_entry_points & vars(board.bus).keys()
    system.run()
    session.finish()
    assert "step" not in vars(board.cpu)
    assert not bus_entry_points & vars(board.bus).keys()


def test_fuse_cut_run_attributes_its_partial_step():
    # The path `repro run --trace --max-cycles` takes: the fuse blows
    # inside a step, and finish() must still attribute that step.
    board = build_baseline(get_benchmark("crc").source, PLANS["unified"])
    counters = install_fused_counters(board)
    counters.cycle_fuse = 100_003
    session = TraceSession.attach(board)
    with pytest.raises(PowerFailure):
        board.run()
    session.finish()
    profiles = session.profiles.values()
    assert sum(p.cycles for p in profiles) == counters.total_cycles
    assert sum(p.instructions for p in profiles) == counters.total_instructions
    assert counters.total_cycles >= 100_003


def test_profile_as_dict_round_trip():
    _, session, _ = _trace(build_swapram)
    record = session.profiles["main"].as_dict(energy_model=session.energy_model)
    assert record["name"] == "main"
    assert record["cycles"] == session.profiles["main"].cycles
    assert "energy_nj" in record
