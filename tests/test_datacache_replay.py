"""Replaying the data cache: write-through exact, write-back refused.

A write-through data cache is a *free replay dimension*: lookups are
transparent and only timing plus the durable write stream change, so a
baseline-shaped trace replays bit-identically under any write-through
geometry. Write-back breaks the premise -- deferred stores decouple
the durable FRAM writes from the recorded store events -- so validity
must refuse it loudly, both as a requested dimension and as a captured
trace, naming the config knob to flip.
"""

import pytest

from repro.datacache.cache import DataCacheConfig
from repro.datacache.system import build_datacache
from repro.replay import ReplayEngine, ReplayRefused, capture_source
from repro.toolchain import PLANS

SOURCE = """
int table[48];

int churn(int rounds) {
    int i;
    int r;
    unsigned acc = 0;
    for (r = 0; r < rounds; r++) {
        for (i = 0; i < 48; i++) {
            table[i] = (table[i] + i + r) & 0xFFFF;
        }
    }
    for (i = 0; i < 48; i++) {
        acc = (acc + table[i]) & 0xFFFF;
    }
    return (int)acc;
}

int main(void) {
    __debug_out((unsigned)churn(5));
    return 0;
}
"""

WT = DataCacheConfig(mode="through", cleaning="none")
WB = DataCacheConfig(mode="back", cleaning="alru")

_CACHE = {}


def document_for(system, datacache=None):
    key = (system, None if datacache is None else tuple(sorted(
        datacache.as_dict().items())))
    if key not in _CACHE:
        _CACHE[key] = capture_source(SOURCE, system=system, datacache=datacache)
    return _CACHE[key]


def assert_result_identical(outcome, result, reference_stats=None):
    replayed = outcome.result
    for name in (
        "total_cycles", "unstalled_cycles", "stall_cycles", "instructions",
        "fram_accesses", "sram_accesses", "energy_nj", "debug_words",
    ):
        assert getattr(replayed, name) == getattr(result, name), name
    if reference_stats is not None:
        assert outcome.stats.as_dict() == reference_stats.as_dict()


def test_wt_capture_replays_bit_identically():
    document, system, result = document_for("datacache", WT)
    assert document.header["system"] == "datacache"
    assert document.header["capture_config"]["mode"] == "through"
    outcome = ReplayEngine(document).replay()
    assert_result_identical(outcome, result, system.stats)


def test_baseline_trace_grows_a_wt_datacache_dimension():
    document, _, _ = document_for("baseline")
    outcome = ReplayEngine(document).replay(datacache=WT)
    executed = build_datacache(SOURCE, PLANS["unified"], config=WT)
    result = executed.run()
    assert_result_identical(outcome, result, executed.stats)
    assert outcome.config["datacache"] == WT.as_dict()


def test_geometry_is_a_free_dimension_over_one_trace():
    document, _, _ = document_for("baseline")
    engine = ReplayEngine(document)
    for geometry in ("16x2x16", "8x2x16", "4x1x8"):
        config = WT.with_geometry(geometry)
        outcome = engine.replay(datacache=config)
        executed = build_datacache(SOURCE, PLANS["unified"], config=config)
        result = executed.run()
        assert_result_identical(outcome, result, executed.stats)


def test_write_back_request_is_refused_naming_the_knob():
    document, _, _ = document_for("baseline")
    with pytest.raises(ReplayRefused) as excinfo:
        ReplayEngine(document).replay(datacache=WB)
    message = str(excinfo.value)
    assert "write-back" in message
    assert "mode='through'" in message


def test_write_back_trace_is_refused_as_a_whole():
    # The capture itself is refused before it runs ...
    with pytest.raises(ReplayRefused) as excinfo:
        capture_source(SOURCE, system="datacache", datacache=WB)
    assert "mode='through'" in str(excinfo.value)
    # ... and a write-back trace (one stored before captures were
    # refused) is refused as a whole.
    from repro.replay.schema import TraceDocument

    captured, _, _ = document_for("datacache", WT)
    header = dict(captured.header)
    header["capture_config"] = WB.as_dict()
    document = TraceDocument(header=header, records=captured.records)
    with pytest.raises(ReplayRefused) as excinfo:
        ReplayEngine(document).replay()
    assert "mode='through'" in str(excinfo.value)


def test_datacache_over_swapram_trace_is_refused():
    document, _, _ = document_for("swapram")
    with pytest.raises(ReplayRefused):
        ReplayEngine(document).replay(datacache=WT)


def test_malformed_datacache_config_is_refused_before_models():
    document, _, _ = document_for("baseline")
    with pytest.raises(ReplayRefused):
        ReplayEngine(document).replay(
            datacache=DataCacheConfig(mode="through", line_bytes=12)
        )
