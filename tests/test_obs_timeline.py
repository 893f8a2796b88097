"""Timeline events: stamping, ordering, runtime hooks, occupancy."""

import pytest

from repro.blockcache import build_blockcache
from repro.core import build_swapram
from repro.machine.trace import AccessCounters
from repro.obs import TraceSession, Timeline, occupancy_intervals
from repro.obs.timeline import SWAPRAM_KINDS
from repro.toolchain import PLANS

TWO_FUNCS = """
int helper(int x) { return x * 2; }
int other(int x) { return x + 7; }
int main(void) {
    __debug_out(helper(21));
    __debug_out(other(35));
    return 0;
}
"""

#: Forces eviction traffic in a deliberately tiny cache.
EVICT_SOURCE = """
int pad_a(int x) {
    int total = x;
    total += 1; total += 2; total += 3; total += 4; total += 5;
    total += 6; total += 7; total += 8; total += 9; total += 10;
    return total;
}
int pad_b(int x) {
    int total = x;
    total -= 1; total -= 2; total -= 3; total -= 4; total -= 5;
    total -= 6; total -= 7; total -= 8; total -= 9; total -= 10;
    return total;
}
int main(void) {
    int acc = 0;
    int i;
    for (i = 0; i < 4; i++) { acc = pad_a(acc); acc = pad_b(acc); }
    __debug_out(acc);
    return 0;
}
"""


def _traced_run(source, builder=build_swapram, **kwargs):
    system = builder(source, PLANS["unified"], **kwargs)
    session = TraceSession.attach(system)
    result = system.run()
    session.finish(result)
    return system, session, result


# -- the Timeline object itself ----------------------------------------------------


def test_record_stamps_current_cycle_count():
    counters = AccessCounters()
    timeline = Timeline(counters)
    timeline.record("miss", func="f")
    counters.stall_cycles += 17
    timeline.record("cache", func="f")
    assert [event.cycle for event in timeline.events] == [0, 17]
    assert [event.kind for event in timeline.events] == ["miss", "cache"]


def test_event_limit_counts_drops():
    timeline = Timeline(AccessCounters(), limit=2)
    for _ in range(5):
        timeline.record("miss")
    assert len(timeline.events) == 2
    assert timeline.dropped == 3


def test_by_kind_tally():
    timeline = Timeline(AccessCounters())
    timeline.record("miss")
    timeline.record("miss")
    timeline.record("cache")
    assert timeline.by_kind() == {"miss": 2, "cache": 1}


# -- live SwapRAM runs --------------------------------------------------------------


def test_swapram_events_match_stats():
    system, session, _ = _traced_run(TWO_FUNCS)
    by_kind = session.timeline.by_kind()
    stats = system.stats
    assert by_kind.get("miss", 0) == stats.misses
    assert by_kind.get("cache", 0) == stats.caches
    assert by_kind.get("evict", 0) == stats.evictions
    assert by_kind.get("nvm-fallback", 0) == stats.nvm_fallbacks


def test_cycle_stamps_are_monotone():
    _, session, result = _traced_run(TWO_FUNCS)
    cycles = [event.cycle for event in session.events]
    assert cycles == sorted(cycles)
    assert cycles[-1] <= result.total_cycles


def test_cache_events_carry_placement_and_occupancy():
    system, session, _ = _traced_run(TWO_FUNCS)
    caches = session.timeline.of_kind("cache")
    assert caches
    sram = system.linked.memory_map.sram
    for event in caches:
        assert sram.start <= event.address < sram.end
        assert event.size > 0
        assert event.occupancy >= event.size
        assert event.func in system.stats.per_function_caches


def test_eviction_run_produces_evict_events():
    system, session, _ = _traced_run(EVICT_SOURCE, cache_limit=400)
    assert system.stats.evictions > 0
    evicts = session.timeline.of_kind("evict")
    assert len(evicts) == system.stats.evictions
    for event in evicts:
        assert event.func
        assert event.size > 0


def test_miss_precedes_cache_for_same_function():
    _, session, _ = _traced_run(TWO_FUNCS)
    first_event = {}
    for event in session.timeline.of_kind("miss", "cache"):
        first_event.setdefault((event.func, event.kind), event.cycle)
    for (func, kind), cycle in first_event.items():
        if kind == "cache":
            assert first_event[(func, "miss")] <= cycle


def test_blockcache_events_match_stats():
    system, session, _ = _traced_run(TWO_FUNCS, builder=build_blockcache)
    by_kind = session.timeline.by_kind()
    stats = system.stats
    assert by_kind.get("hit", 0) == stats.hits
    assert by_kind.get("miss", 0) == stats.misses
    assert by_kind.get("cache", 0) == stats.misses
    assert by_kind.get("chain", 0) == stats.chains
    assert by_kind.get("flush", 0) == stats.flushes


# -- occupancy folding ---------------------------------------------------------------


def test_occupancy_intervals_close_on_evict():
    counters = AccessCounters()
    timeline = Timeline(counters)
    timeline.record("cache", func="a", address=0x2000, size=64)
    counters.stall_cycles = 100
    timeline.record("evict", func="a", address=0x2000, size=64)
    counters.stall_cycles = 150
    timeline.record("cache", func="b", address=0x2000, size=32)
    intervals = occupancy_intervals(timeline.events, final_cycle=400)
    assert intervals == [
        {"func": "a", "address": 0x2000, "size": 64,
         "start_cycle": 0, "end_cycle": 100},
        {"func": "b", "address": 0x2000, "size": 32,
         "start_cycle": 150, "end_cycle": 400},
    ]


def test_live_occupancy_covers_every_cached_function():
    system, session, _ = _traced_run(TWO_FUNCS)
    residents = {interval["func"] for interval in session.occupancy()}
    assert set(system.stats.per_function_caches) <= residents


# -- tracing off = nothing recorded, nothing perturbed -------------------------------


def test_runtime_timeline_defaults_to_none():
    system = build_swapram(TWO_FUNCS, PLANS["unified"])
    assert system.board.emit is None and system.board.observers == []
    system.run()
    assert system.board.emit is None and system.board.observers == []


def test_finish_detaches_runtime_hook():
    system = build_swapram(TWO_FUNCS, PLANS["unified"])
    session = TraceSession.attach(system)
    assert system.board.emit == session.timeline.on_event
    assert session.timeline in system.board.observers
    session.finish(system.run())
    assert system.board.emit is None and system.board.observers == []
    assert session.timeline.of_kind(*SWAPRAM_KINDS)  # recorded while attached


def test_untraced_board_runs_unwrapped_hot_path():
    """The zero-overhead guarantee: without a session, neither the CPU
    step nor any bus access method is wrapped (no instance attributes
    shadow the class methods)."""
    system = build_swapram(TWO_FUNCS, PLANS["unified"])
    board = system.board
    for stage in ("before", "after"):
        assert "step" not in vars(board.cpu), stage
        for method in ("fetch_word", "account_fetch", "read", "write"):
            assert method not in vars(board.bus), (stage, method)
        if stage == "before":
            system.run()


def test_traced_run_matches_untraced_run():
    plain = build_swapram(TWO_FUNCS, PLANS["unified"])
    plain_result = plain.run()
    _, _, traced_result = _traced_run(TWO_FUNCS)
    assert traced_result.debug_words == plain_result.debug_words
    assert traced_result.total_cycles == plain_result.total_cycles
    assert traced_result.fram_accesses == plain_result.fram_accesses
    assert traced_result.energy_nj == pytest.approx(plain_result.energy_nj)
