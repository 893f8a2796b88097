"""Wiring around the replay core: store, runner engine, ablation, CLI.

The engine's equivalence is proven in ``test_replay_equivalence.py``;
these tests pin the plumbing -- content-addressed trace identity, the
experiment runner's replay engine and its logged fallbacks, the
ablation sweep's replay path, and the ``repro replay`` command line.
"""

import io

import pytest

from repro.replay import capture_source
from repro.replay.store import TraceStore, identity_digest, identity_from_header

TINY_SOURCE = """
int twirl(int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        total += i * 3;
    }
    return total;
}

int main(void) {
    __debug_out((unsigned)twirl(9));
    return 0;
}
"""

_DOCS = {}


def tiny_document():
    if "doc" not in _DOCS:
        _DOCS["doc"], _, _ = capture_source(TINY_SOURCE, system="swapram")
    return _DOCS["doc"]


# -- the content-addressed store ---------------------------------------------------


def test_store_roundtrip_and_identity(tmp_path):
    store = TraceStore(tmp_path)
    document = tiny_document()
    path = store.save(document)
    assert path.is_file()
    assert path.suffix == ".trace"
    # Found by identity...
    header = document.header
    found = store.find(
        header["system"], header["plan_config"], header["scale"], header["source"]
    )
    assert found == path
    # ...and re-saving the same capture lands on the same file.
    assert store.save(document) == path
    assert len(list(tmp_path.glob("*.trace"))) == 1
    # A different source is a different identity: no stale-trace hits.
    assert (
        store.find(
            header["system"],
            header["plan_config"],
            header["scale"],
            header["source"] + "\n",
        )
        is None
    )
    loaded = store.load(
        header["system"], header["plan_config"], header["scale"], header["source"]
    )
    assert loaded.records == document.records


def test_store_index_lists_saved_traces(tmp_path):
    store = TraceStore(tmp_path)
    store.save(tiny_document())
    entries = store.entries()
    assert len(entries) == 1
    name, meta = entries[0]
    assert meta["system"] == "swapram"
    assert meta["events"] == tiny_document().events


def test_block_identity_includes_geometry():
    header = dict(tiny_document().header)
    swapram_digest = identity_digest(identity_from_header(header))
    header["system"] = "block"
    header["capture_config"] = {"cache_limit": 0x180, "slot_bytes": 48}
    capped = identity_digest(identity_from_header(header))
    header["capture_config"] = {"cache_limit": None, "slot_bytes": 48}
    uncapped = identity_digest(identity_from_header(header))
    assert len({swapram_digest, capped, uncapped}) == 3


def test_data_cache_captures_keep_one_trace_per_configuration(tmp_path):
    """Write-through is the one replayable data cache: its capture is
    stored under its configuration, and a write-back capture (wb, acp)
    is refused with validity's reason before anything runs or is
    stored."""
    from repro.replay.schema import TraceDocument

    source_path = tmp_path / "prog.c"
    source_path.write_text(TINY_SOURCE)
    store = tmp_path / "traces"
    status, output = _cli(
        ["replay", "capture", str(source_path), "--system", "datacache-wt"]
        + ["--store", str(store)]
    )
    assert status == 0
    for system in ("datacache-wb", "datacache-acp"):
        status, output = _cli(
            ["replay", "capture", str(source_path), "--system", system]
            + ["--store", str(store)]
        )
        assert status == 2
        assert "capture refused" in output
        assert "write-back data cache is not replayable" in output
    traces = sorted(store.glob("*.trace"))
    assert len(traces) == 1
    assert len(TraceStore(store).read_index()) == 1
    header = TraceDocument.load(traces[0]).header
    config = header["capture_config"]
    assert (config["mode"], config["cleaning"]) == ("through", "none")


# -- ExperimentRunner(engine="replay") ---------------------------------------------


def test_runner_replay_engine_matches_execution():
    from repro.experiments.runner import ExperimentRunner

    executed = ExperimentRunner().run("crc", "swapram")
    replayed = ExperimentRunner(engine="replay").run("crc", "swapram")
    assert replayed.result.as_dict() == executed.result.as_dict()
    assert replayed.runtime_stats.as_dict() == executed.runtime_stats.as_dict()
    assert replayed.section_sizes == executed.section_sizes
    assert replayed.correct is True


def test_runner_replay_engine_is_cached_across_frequencies():
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(engine="replay")
    runner.run("crc", "swapram", frequency_mhz=24)
    assert len(runner._engines) == 1
    first_run = runner.run("crc", "swapram", frequency_mhz=8)
    assert len(runner._engines) == 1  # second frequency replays, no recapture
    assert first_run.result.frequency_mhz == 8


def test_runner_replay_falls_back_with_logged_reason():
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(engine="replay", max_cycles=50_000_000)
    record = runner.run("crc", "swapram")
    assert record.correct is True  # served by execution...
    assert runner.replay_fallbacks  # ...with the reason on record
    key, reason = runner.replay_fallbacks[0]
    assert key == ("crc", "swapram", "unified", 0)
    assert "watchdog" in reason


def test_runner_rejects_unknown_engine():
    from repro.experiments.runner import ExperimentRunner

    with pytest.raises(ValueError, match="unknown engine"):
        ExperimentRunner(engine="warp")


def test_runner_replay_uses_trace_store(tmp_path):
    from repro.experiments.runner import ExperimentRunner

    store = TraceStore(tmp_path)
    first = ExperimentRunner(engine="replay", trace_store=store)
    record = first.run("crc", "swapram")
    saved = list(tmp_path.glob("*.trace"))
    assert len(saved) == 1  # capture was persisted...

    second = ExperimentRunner(engine="replay", trace_store=store)
    reused = second.run("crc", "swapram")
    assert list(tmp_path.glob("*.trace")) == saved  # ...and reused, not redone
    assert reused.result.as_dict() == record.result.as_dict()
    # Loading from the store skips the capture run entirely.
    assert reused.host_build_s < record.host_build_s


# -- the ablation sweep ------------------------------------------------------------


def test_ablation_replay_rows_match_execution():
    from repro.experiments.ablation import cache_size_sweep

    sizes = (None, 0xC0)
    assert cache_size_sweep("crc", sizes) == cache_size_sweep(
        "crc", sizes, engine="replay"
    )


# -- the command line --------------------------------------------------------------


def _cli(args):
    from repro.cli import main

    out = io.StringIO()
    status = main(args, out=out)
    return status, out.getvalue()


def test_cli_capture_run_sweep(tmp_path):
    source_path = tmp_path / "prog.c"
    source_path.write_text(TINY_SOURCE)
    store = str(tmp_path / "traces")

    status, text = _cli(
        ["replay", "capture", str(source_path), "--store", store]
    )
    assert status == 0
    assert "captured" in text
    traces = list((tmp_path / "traces").glob("*.trace"))
    assert len(traces) == 1

    status, text = _cli(
        ["replay", "run", str(traces[0]), "--policy", "stack", "--stats"]
    )
    assert status == 0
    assert "events/s" in text
    assert "cache stats" in text

    status, text = _cli(
        [
            "replay",
            "sweep",
            str(source_path),
            "--store",
            store,
            "--policies",
            "queue",
            "stack",
            "--cache-limits",
            "none",
        ]
    )
    assert status == 0
    assert "reusing trace" in text  # same identity as the capture step
    assert "replayed 2 configs" in text

    status, text = _cli(["replay", "list", "--store", store])
    assert status == 0
    assert "swapram/unified" in text


def test_cli_run_refusal_exits_2(tmp_path):
    path = tmp_path / "tiny.trace"
    tiny_document().save(path)
    status, text = _cli(
        ["replay", "run", str(path), "--cache-limit", "192", "--policy", "queue"]
    )
    assert status == 0  # swapram: cache limit is a free dimension

    # A block trace refuses geometry changes through the CLI too.
    block_doc, _, _ = capture_source(TINY_SOURCE, system="block")
    block_path = tmp_path / "block.trace"
    block_doc.save(block_path)
    status, text = _cli(["replay", "run", str(block_path), "--cache-limit", "64"])
    assert status == 2
    assert "refused" in text


def test_cli_truncated_trace_reported(tmp_path):
    path = tmp_path / "cut.trace"
    blob = tiny_document().to_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    status, text = _cli(["replay", "run", str(path)])
    assert status == 2
    assert "error:" in text


def test_cli_list_json_is_deterministic(tmp_path):
    import json

    store = str(tmp_path / "traces")
    TraceStore(store).save(tiny_document())
    status, first = _cli(["replay", "list", "--store", store, "--json"])
    assert status == 0
    _, second = _cli(["replay", "list", "--store", store, "--json"])
    assert first == second
    doc = json.loads(first)
    assert doc["count"] == 1
    assert doc["root"] == store
    (meta,) = doc["traces"].values()
    assert meta["system"] == "swapram"


# -- the fram_cache replay dimension ------------------------------------------------


def test_fram_cache_validity_rules():
    from repro.replay.validity import check_fram_cache

    assert check_fram_cache(None) == []
    assert check_fram_cache((2, 2, 8)) == []
    for bad in (
        (0, 2, 8),      # sets must be positive
        (2, -1, 8),     # ways must be positive
        (2, 2, 7),      # line_bytes must be a power of two
        (2, 2, 1),      # ...of at least 2
        (True, 2, 8),   # bools are not sizes
        (2, 2),         # malformed tuple
        "2x2x8",        # not a tuple at all
    ):
        assert check_fram_cache(bad), bad


def test_fram_cache_is_a_free_dimension_for_all_systems():
    from repro.replay import ReplayEngine

    engine = ReplayEngine(tiny_document())  # a swapram trace
    outcome = engine.replay(fram_cache=(1, 8, 8))
    fc = outcome.board.bus.fram_cache
    assert (fc.sets, fc.ways, fc.line_bytes) == (1, 8, 8)
    assert fc.hits + fc.misses > 0
    # Baseline semantics are untouched: same words out either way.
    assert outcome.result.debug_words == engine.replay().result.debug_words

    with pytest.raises(Exception) as excinfo:
        engine.replay(fram_cache=(2, 2, 7))
    assert "line_bytes" in str(excinfo.value)
