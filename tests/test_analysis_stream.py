"""The analysis reader: stream derivation, refusals, truncation.

The stream is the exactness foundation: every touch/invalidate here
must mirror the replay engine's FRAM-cache interaction, and anything
the analyses cannot be exact about -- non-baseline traces, corrupt
files -- must fail loudly, never silently produce a plausible report.
"""

import pytest

from repro.analysis import (
    AnalysisError,
    AnalysisRefused,
    INVALIDATE,
    TOUCH,
    build_stream,
)
from repro.machine.fram_cache import FramReadCache
from repro.replay import ReplayEngine, capture_source
from repro.replay.schema import (
    TraceDocument,
    TraceSchemaError,
    TraceTruncatedError,
)

SOURCE = """
int table[24];

int mix(int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        table[i % 24] = total;
        total += table[(i * 7) % 24] + i;
    }
    return total;
}

int main(void) {
    __debug_out((unsigned)mix(40));
    return 0;
}
"""

_CACHE = {}


def baseline_document():
    if "baseline" not in _CACHE:
        _CACHE["baseline"], _, _ = capture_source(SOURCE, system="baseline")
    return _CACHE["baseline"]


def swapram_document():
    if "swapram" not in _CACHE:
        _CACHE["swapram"], _, _ = capture_source(SOURCE, system="swapram")
    return _CACHE["swapram"]


# -- derivation and exactness -----------------------------------------------------


def test_stream_mirrors_replay_fram_cache_exactly():
    document = baseline_document()
    stream = build_stream(document)
    for sets, ways in ((1, 1), (2, 2), (1, 4), (4, 2)):
        cache = FramReadCache(sets=sets, ways=ways, line_bytes=8)
        for op, tag, _cycles in stream.events:
            if op == TOUCH:
                cache.access(tag * 8)
            else:
                cache.invalidate(tag * 8)
        outcome = ReplayEngine(document).replay(fram_cache=(sets, ways, 8))
        fc = outcome.board.bus.fram_cache
        assert (cache.hits, cache.misses) == (fc.hits, fc.misses)


def test_stream_facts_and_owners():
    stream = build_stream(baseline_document())
    assert stream.touches > 0
    assert stream.invalidations > 0  # the table writes hit FRAM
    assert stream.total_instructions == baseline_document().instructions
    owner_names = set(stream.owners.values())
    assert "mix" in owner_names
    assert "<data>" in owner_names  # the table's lines
    assert stream.identity()["system"] == "baseline"
    # Cycle stamps are nondecreasing: the deterministic time axis.
    cycles = [c for _, _, c in stream.events]
    assert cycles == sorted(cycles)
    assert stream.events[-1][2] <= stream.total_cycles


def test_iter_instructions_typed_view():
    document = baseline_document()
    first = next(document.iter_instructions())
    assert first.is_absolute
    assert first.words >= 1
    for access in first.accesses:
        assert access.address >= 0
        assert isinstance(access.is_write, bool)
    assert sum(1 for _ in document.iter_instructions()) == (
        document.instructions
    )


# -- refusals ----------------------------------------------------------------------


def test_swapram_trace_is_refused():
    with pytest.raises(AnalysisRefused) as excinfo:
        build_stream(swapram_document())
    assert "baseline" in str(excinfo.value)


def test_refusal_is_counted():
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    with pytest.raises(AnalysisRefused):
        build_stream(swapram_document(), metrics=registry)
    assert registry.counter("analysis.refused").value == 1


def test_bad_line_bytes_rejected():
    document = baseline_document()
    for bad in (0, 1, 3, 12):
        with pytest.raises(AnalysisError):
            build_stream(document, line_bytes=bad)


# -- truncation / corruption on the reader -----------------------------------------


def test_truncated_trace_file_fails_loudly(tmp_path):
    data = baseline_document().to_bytes()
    path = tmp_path / "cut.trace"
    path.write_bytes(data[: len(data) - 40])
    with pytest.raises(TraceTruncatedError):
        TraceDocument.load(path)


def test_corrupt_payload_fails_loudly(tmp_path):
    data = bytearray(baseline_document().to_bytes())
    data[-20] ^= 0xFF  # flip a byte inside the compressed payload
    path = tmp_path / "flip.trace"
    path.write_bytes(bytes(data))
    with pytest.raises(TraceTruncatedError):
        TraceDocument.load(path)


def test_foreign_file_fails_loudly(tmp_path):
    path = tmp_path / "foreign.trace"
    path.write_bytes(b"ELF!" + b"\x00" * 64)
    with pytest.raises(TraceSchemaError):
        TraceDocument.load(path)


def test_stream_events_are_line_granular():
    stream = build_stream(baseline_document(), line_bytes=16)
    assert stream.line_bytes == 16
    wide = stream.distinct_lines
    narrow = build_stream(baseline_document(), line_bytes=8).distinct_lines
    assert wide <= narrow  # wider lines cover the footprint with fewer tags
    assert all(op in (TOUCH, INVALIDATE) for op, _, _ in stream.events)


# -- the data-cache scope rule -----------------------------------------------------


def _datacache_document(mode):
    from repro.datacache.cache import DataCacheConfig
    from repro.replay.schema import TraceDocument

    if "datacache" not in _CACHE:
        _CACHE["datacache"], _, _ = capture_source(
            SOURCE,
            system="datacache",
            datacache=DataCacheConfig(mode="through", cleaning="none"),
        )
    through = _CACHE["datacache"]
    if mode == "through":
        return through
    # A write-back capture is refused before it runs, so a write-back
    # trace is the write-through one relabelled, as a trace stored
    # before that refusal reads.
    config = DataCacheConfig(mode=mode, cleaning="alru").as_dict()
    header = dict(through.header, capture_config=config)
    return TraceDocument(header=header, records=through.records)


def test_write_through_datacache_trace_analyses_as_baseline():
    # The capture taps sit *above* the data-cache interception, so a
    # write-through trace records the raw application reference string
    # -- the derived stream must be event-identical to the baseline's.
    wt = build_stream(_datacache_document("through"))
    baseline = build_stream(baseline_document())
    # Cycles differ (write-through timing != baseline timing); the
    # reference string itself -- op and line, in order -- must not.
    assert [
        (op, tag) for op, tag, _ in wt.events
    ] == [
        (op, tag) for op, tag, _ in baseline.events
    ]


def test_write_back_datacache_trace_is_refused_naming_the_knob():
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    with pytest.raises(AnalysisRefused) as excinfo:
        build_stream(_datacache_document("back"), metrics=registry)
    message = str(excinfo.value)
    assert "write-back" in message
    assert "DataCacheConfig(mode='through')" in message
    assert registry.counter("analysis.refused").value == 1
