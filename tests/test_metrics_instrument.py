"""Metrics attachment invariants: exact sums, idempotency, zero default.

The discipline under test mirrors ``repro.obs.collector``: when a
registry is attached, its counters must agree *exactly* with the
runtime's own stats totals; when nothing is attached, the board has no
subscriber and ``board.emit is None``, so the hot path is the seed code
path.
"""

import pytest

from repro.blockcache import build_blockcache
from repro.core import build_swapram
from repro.metrics import MetricsRegistry, MetricsSession
from repro.metrics.instrument import derive_run_metrics, derive_stats_metrics
from repro.toolchain import PLANS

#: Forces eviction traffic in a deliberately tiny cache (same shape as
#: the obs timeline tests).
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


def _metered_swapram(**kwargs):
    system = build_swapram(EVICT_SOURCE, PLANS["unified"], **kwargs)
    session = MetricsSession.attach(system)
    result = system.run()
    session.finish(result)
    return system, session, result


# -- exact-sum invariants -----------------------------------------------------------


def _counter_value(registry, name):
    """A counter that was never incremented simply never materialized."""
    return registry[name].value if name in registry else 0


def test_swapram_counters_equal_stats_totals():
    system, session, _ = _metered_swapram(cache_limit=400)
    stats = system.stats
    registry = session.registry
    assert stats.evictions > 0, "cache_limit did not force evictions"
    assert _counter_value(registry, "swapram.misses") == stats.misses
    assert _counter_value(registry, "swapram.caches") == stats.caches
    assert _counter_value(registry, "swapram.evictions") == stats.evictions
    assert _counter_value(registry, "swapram.aborts") == stats.aborts
    assert (
        _counter_value(registry, "swapram.nvm_fallbacks")
        == stats.nvm_fallbacks
    )


def test_swapram_copied_words_histogram_sums_exactly():
    system, session, _ = _metered_swapram(cache_limit=400)
    hist = session.registry["swapram.copied_words"]
    assert hist.total == system.stats.words_copied
    assert hist.count == system.stats.caches + system.stats.prefetches


def test_blockcache_counters_equal_stats_totals():
    system = build_blockcache(EVICT_SOURCE, PLANS["unified"])
    session = MetricsSession.attach(system)
    result = system.run()
    session.finish(result)
    stats = system.stats
    registry = session.registry
    assert _counter_value(registry, "blockcache.entries") == stats.entries
    assert _counter_value(registry, "blockcache.hits") == stats.hits
    assert _counter_value(registry, "blockcache.misses") == stats.misses
    assert registry["blockcache.copied_words"].total == stats.words_copied
    assert _counter_value(registry, "blockcache.flushes") == stats.flushes
    assert _counter_value(registry, "blockcache.chains") == stats.chains


# -- attach/detach discipline --------------------------------------------------------


def test_runtime_metrics_default_is_none():
    system = build_swapram(EVICT_SOURCE, PLANS["unified"])
    assert system.board.emit is None and system.board.observers == []
    system.run()
    assert system.board.emit is None and system.board.observers == []


def test_attach_detach_restores_original():
    system = build_swapram(EVICT_SOURCE, PLANS["unified"])
    board = system.board
    session = MetricsSession.attach(system)
    assert board.observers == [session.subscriber]
    assert board.emit == session.subscriber.on_event
    assert session.subscriber.registry is session.registry
    session.detach()
    assert board.emit is None and board.observers == []


def test_detach_is_idempotent():
    system = build_swapram(EVICT_SOURCE, PLANS["unified"])
    session = MetricsSession.attach(system)
    session.detach()
    session.detach()
    assert system.board.emit is None and system.board.observers == []
    assert not session.timer.running("run")


def test_nested_sessions_both_count():
    system = build_swapram(EVICT_SOURCE, PLANS["unified"], cache_limit=400)
    board = system.board
    outer = MetricsSession.attach(system)
    inner = MetricsSession.attach(system)
    assert board.observers == [outer.subscriber, inner.subscriber]
    system.run()
    inner.detach()
    assert board.observers == [outer.subscriber]
    outer.detach()
    assert board.emit is None and board.observers == []
    stats = system.stats
    assert stats.evictions > 0, "cache_limit did not force evictions"
    for registry in (outer.registry, inner.registry):
        assert _counter_value(registry, "swapram.misses") == stats.misses
        assert _counter_value(registry, "swapram.caches") == stats.caches
        assert _counter_value(registry, "swapram.evictions") == stats.evictions
        assert registry["swapram.copied_words"].total == stats.words_copied


def test_attach_on_baseline_board_is_harmless():
    from repro.toolchain import build_baseline

    board = build_baseline(EVICT_SOURCE, PLANS["unified"])
    session = MetricsSession.attach(board)
    result = board.run()
    session.finish(result)
    assert session.registry["guest.total_cycles"].value == result.total_cycles
    assert session.host_seconds > 0


def test_context_manager_detaches():
    system = build_swapram(EVICT_SOURCE, PLANS["unified"])
    with MetricsSession.attach(system) as session:
        assert system.board.observers == [session.subscriber]
    assert system.board.emit is None and system.board.observers == []


# -- derived metrics ----------------------------------------------------------------


def test_finish_derives_guest_and_rate_metrics():
    system, session, result = _metered_swapram(cache_limit=400)
    registry = session.registry
    assert registry["guest.total_cycles"].value == result.total_cycles
    assert registry["guest.instructions"].value == result.instructions
    assert registry["host.seconds"].value == pytest.approx(
        session.host_seconds
    )
    stats = system.stats
    assert registry["swapram.cache_rate"].value == pytest.approx(
        stats.caches / stats.misses
    )
    assert registry["swapram.copy_bytes"].value == 2 * stats.words_copied


def test_derive_stats_metrics_handles_blockcache_shape():
    from repro.blockcache.runtime import BlockCacheStats

    stats = BlockCacheStats(entries=10, hits=6, misses=4, words_copied=100)
    registry = derive_stats_metrics(MetricsRegistry(), stats)
    assert registry["blockcache.hit_rate"].value == pytest.approx(0.6)
    assert registry["blockcache.miss_rate"].value == pytest.approx(0.4)
    assert registry["blockcache.copy_bytes"].value == 200


def test_derive_run_metrics_accepts_plain_dict():
    record = {
        "instructions": 1000,
        "unstalled_cycles": 1500,
        "stall_cycles": 500,
        "total_cycles": 2000,
        "fram_accesses": 300,
        "sram_accesses": 700,
        "runtime_us": 83.3,
        "energy_nj": 4200.0,
    }
    registry = derive_run_metrics(MetricsRegistry(), record, host_seconds=2.0)
    assert registry["guest.total_cycles"].value == 2000
    assert registry["host.instructions_per_s"].value == pytest.approx(500.0)


def test_derive_stats_metrics_handles_datacache_shape():
    from repro.datacache.cache import DataCacheStats

    stats = DataCacheStats(
        reads=6, writes=4, read_hits=4, write_hits=2, read_misses=2,
        write_misses=2, read_fills=2, write_fills=2,
        clean_writebacks=1, flush_writebacks=1, lost_dirty_lines=3,
    )
    registry = derive_stats_metrics(MetricsRegistry(), stats)
    assert registry.gauge("datacache.hit_rate").value == 0.6
    assert registry.gauge("datacache.miss_rate").value == 0.4
    assert registry.gauge("datacache.clean_rate").value == 0.1
    assert registry.gauge("datacache.lost_dirty_lines").value == 3
    # DataCacheStats also exposes .misses/.hits, so the dispatch must
    # not fall through to the SwapRAM branch.
    assert "swapram.cache_rate" not in registry
    assert "blockcache.hit_rate" not in registry
