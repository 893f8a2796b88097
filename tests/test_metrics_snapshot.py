"""Snapshot harness and regression gate: schema, numbering, thresholds."""

import copy
import json

import pytest

from repro.cli import main as repro_main
from repro.metrics import (
    compare_snapshots,
    next_snapshot_path,
    snapshot_run,
    take_snapshot,
    validate_snapshot,
    write_snapshot,
)
from repro.metrics.snapshot import SCHEMA


@pytest.fixture(scope="module")
def crc_snapshot():
    """One real (but small) snapshot shared by the module's tests."""
    return take_snapshot(benchmarks=("crc",), systems=("baseline", "swapram"))


# -- taking snapshots ---------------------------------------------------------------


def test_snapshot_is_schema_valid(crc_snapshot):
    assert crc_snapshot["schema"] == SCHEMA
    assert validate_snapshot(crc_snapshot) == []
    assert len(crc_snapshot["runs"]) == 2


def test_snapshot_guest_metrics_match_direct_run(crc_snapshot):
    from repro.core import build_swapram
    from repro.bench import get_benchmark
    from repro.toolchain import PLANS

    direct = build_swapram(get_benchmark("crc").source, PLANS["unified"]).run()
    row = next(
        run for run in crc_snapshot["runs"] if run["system"] == "swapram"
    )
    assert row["guest"]["total_cycles"] == direct.total_cycles
    assert row["guest"]["fram_accesses"] == direct.fram_accesses
    assert row["guest"]["energy_nj"] == pytest.approx(direct.energy_nj)


def test_snapshot_row_has_host_timing_and_stats(crc_snapshot):
    for run in crc_snapshot["runs"]:
        assert run["host"]["run_s"] > 0
        assert run["host"]["instructions_per_s"] > 0
        assert "compile" in run["host"]["phases"]
        assert "build" in run["host"]["phases"]
    swapram = next(
        run for run in crc_snapshot["runs"] if run["system"] == "swapram"
    )
    assert swapram["stats"]["misses"] > 0
    assert swapram["metrics"]["swapram.misses"]["value"] > 0


def test_snapshot_run_reports_dnf_instead_of_raising():
    # fft + block cache overflows FRAM under the unified plan (the
    # Figure 7 DNF case) -- the row must record it, not raise.
    row = snapshot_run("fft", "block", plan_name="unified")
    assert row["dnf"] is True
    assert "fram overflow" in row["dnf_reason"]
    assert "guest" not in row
    assert "phases" in row["host"]
    snapshot = {
        "schema": SCHEMA,
        "suite": {"benchmarks": ["fft"], "systems": ["block"]},
        "runs": [row],
    }
    assert validate_snapshot(snapshot) == []


def test_validate_rejects_malformed_documents():
    assert validate_snapshot([]) == ["snapshot is not an object"]
    assert any(
        "schema" in problem for problem in validate_snapshot({"runs": [{}]})
    )
    broken = {
        "schema": SCHEMA,
        "suite": {},
        "runs": [{"benchmark": "crc", "system": "baseline", "plan": "unified"}],
    }
    assert any("guest" in problem for problem in validate_snapshot(broken))


# -- numbering ----------------------------------------------------------------------


def test_bench_numbering_skips_taken_slots(tmp_path):
    assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")
    assert next_snapshot_path(tmp_path).name == "BENCH_2.json"


def test_write_snapshot_uses_next_slot(tmp_path, crc_snapshot):
    first = write_snapshot(crc_snapshot, root=tmp_path)
    second = write_snapshot(crc_snapshot, root=tmp_path)
    assert first.name == "BENCH_1.json"
    assert second.name == "BENCH_2.json"
    assert validate_snapshot(json.loads(first.read_text())) == []


# -- the gate -----------------------------------------------------------------------


def test_identical_snapshots_pass(crc_snapshot):
    report = compare_snapshots(crc_snapshot, crc_snapshot)
    assert report.ok
    assert report.regressions == []
    assert "OK" in report.render()


def test_injected_2x_cycle_regression_fails(crc_snapshot):
    worse = copy.deepcopy(crc_snapshot)
    for run in worse["runs"]:
        run["guest"]["total_cycles"] *= 2
    report = compare_snapshots(crc_snapshot, worse)
    assert not report.ok
    assert any(
        delta.metric == "total_cycles" and delta.ratio == 2.0
        for delta in report.regressions
    )
    assert "REGRESSED" in report.render()


def test_gate_boundary_is_inclusive(crc_snapshot):
    # new == old * (1 + threshold) passes; anything beyond fails. The
    # CI gate therefore uses 0.9 (not 1.0) to catch exact doublings.
    doubled = copy.deepcopy(crc_snapshot)
    for run in doubled["runs"]:
        run["guest"]["total_cycles"] *= 2
    assert compare_snapshots(
        crc_snapshot, doubled, default_threshold=1.0
    ).ok
    assert not compare_snapshots(
        crc_snapshot, doubled, default_threshold=0.9
    ).ok


def test_improvements_never_fail(crc_snapshot):
    better = copy.deepcopy(crc_snapshot)
    for run in better["runs"]:
        run["guest"]["total_cycles"] //= 2
    assert compare_snapshots(crc_snapshot, better).ok


def test_threshold_overrides(crc_snapshot):
    slightly_worse = copy.deepcopy(crc_snapshot)
    for run in slightly_worse["runs"]:
        run["guest"]["total_cycles"] = int(
            run["guest"]["total_cycles"] * 1.2
        )
    assert compare_snapshots(crc_snapshot, slightly_worse).ok
    tight = compare_snapshots(
        crc_snapshot, slightly_worse, thresholds={"total_cycles": 0.1}
    )
    assert not tight.ok
    loose = compare_snapshots(
        crc_snapshot, slightly_worse, default_threshold=0.25
    )
    assert loose.ok


def test_missing_run_is_a_regression(crc_snapshot):
    shrunk = copy.deepcopy(crc_snapshot)
    shrunk["runs"] = shrunk["runs"][:1]
    report = compare_snapshots(crc_snapshot, shrunk)
    assert not report.ok
    assert report.missing
    assert "MISSING" in report.render()


def test_newly_dnf_run_is_a_regression(crc_snapshot):
    broken = copy.deepcopy(crc_snapshot)
    run = broken["runs"][0]
    broken["runs"][0] = {
        "benchmark": run["benchmark"],
        "system": run["system"],
        "plan": run["plan"],
        "dnf": True,
    }
    report = compare_snapshots(crc_snapshot, broken)
    assert not report.ok


def test_host_metrics_not_gated_by_default(crc_snapshot):
    slow_host = copy.deepcopy(crc_snapshot)
    for run in slow_host["runs"]:
        run["host"]["run_s"] *= 100
    assert compare_snapshots(crc_snapshot, slow_host).ok
    gated = compare_snapshots(crc_snapshot, slow_host, host_threshold=2.0)
    assert not gated.ok


# -- phase attribution --------------------------------------------------------------


def test_compare_collects_phase_spans_in_pipeline_order(crc_snapshot):
    report = compare_snapshots(crc_snapshot, crc_snapshot)
    assert report.phases  # every compared run timed its phases
    for spans in report.phases.values():
        names = [phase for phase, _old, _new in spans]
        assert names.index("compile") < names.index("build")


def test_render_attributes_regressions_to_phases(crc_snapshot):
    """A failing gate must say *where* the seconds went: the render
    carries per-phase old -> new deltas next to the metric table."""
    worse = copy.deepcopy(crc_snapshot)
    for run in worse["runs"]:
        run["guest"]["total_cycles"] *= 2
        run["host"]["phases"]["compile"]["seconds"] += 1.0
    report = compare_snapshots(crc_snapshot, worse)
    assert not report.ok
    rendered = report.render()
    assert "phases crc/" in rendered
    assert "compile" in rendered
    assert "(+1.000s)" in rendered


def test_phase_lines_track_shown_rows_only(crc_snapshot):
    clean = compare_snapshots(crc_snapshot, crc_snapshot)
    assert "phases crc/" not in clean.render()  # nothing regressed
    assert "phases crc/" in clean.render(all_rows=True)


def test_runs_without_phase_records_render_fine(crc_snapshot):
    bare = copy.deepcopy(crc_snapshot)
    for snapshot in (bare,):
        for run in snapshot["runs"]:
            run["host"].pop("phases", None)
    report = compare_snapshots(bare, bare)
    assert report.phases == {}
    assert "OK" in report.render(all_rows=True)


# -- the CLI ------------------------------------------------------------------------


def test_cli_snapshot_compare_roundtrip(tmp_path, capsys):
    old_path = tmp_path / "old.json"
    code = repro_main(
        [
            "bench", "snapshot", "--benchmarks", "crc", "--systems",
            "baseline", "--out", str(old_path), "--quiet",
        ]
    )
    assert code == 0
    assert validate_snapshot(json.loads(old_path.read_text())) == []

    same = repro_main(["bench", "compare", str(old_path), str(old_path)])
    assert same == 0

    worse_doc = json.loads(old_path.read_text())
    for run in worse_doc["runs"]:
        run["guest"]["total_cycles"] *= 2
        run["guest"]["unstalled_cycles"] = (
            run["guest"]["total_cycles"] - run["guest"]["stall_cycles"]
        )
    worse_path = tmp_path / "worse.json"
    worse_path.write_text(json.dumps(worse_doc))
    failed = repro_main(["bench", "compare", str(old_path), str(worse_path)])
    assert failed == 1

    assert repro_main(["bench", "validate", str(old_path)]) == 0
    capsys.readouterr()


def test_cli_compare_bad_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    good = tmp_path / "good.json"
    good.write_text("not json")
    assert repro_main(["bench", "compare", str(missing), str(good)]) == 2
    capsys.readouterr()


def test_cli_snapshot_accepts_registry_names(tmp_path, capsys):
    path = tmp_path / "block.json"
    code = repro_main(
        [
            "bench", "snapshot", "--benchmarks", "crc", "--systems",
            "blockcache", "--out", str(path), "--quiet",
        ]
    )
    assert code == 0
    document = json.loads(path.read_text())
    assert validate_snapshot(document) == []
    (row,) = document["runs"]
    assert row["system"] == "blockcache"
    assert row["stats"]["entries"] == row["stats"]["hits"] + row["stats"]["misses"]
    capsys.readouterr()
