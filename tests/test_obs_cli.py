"""The ``repro trace`` subcommand and the main CLI's ``--trace`` flag."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import validate_trace

PROGRAM = """
int twice(int x) { return x + x; }
int main(void) {
    __debug_out(twice(21));
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.c"
    path.write_text(PROGRAM)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _load_valid_trace(path):
    trace = json.loads(path.read_text())
    assert validate_trace(trace) == []
    return trace


def test_trace_subcommand_on_benchmark(tmp_path):
    out_path = tmp_path / "crc.trace.json"
    code, output = run_cli(
        "trace", "crc", "--system", "swapram", "--out", str(out_path)
    )
    assert code == 0
    assert "Per-function attribution" in output
    assert "crc_bit_step" in output
    assert "Call tree" in output
    trace = _load_valid_trace(out_path)
    assert trace["otherData"]["benchmark"] == "crc"

    report = json.loads(out_path.with_suffix(".report.json").read_text())
    assert report["label"] == "crc"
    # The headline acceptance property: per-function attribution sums
    # exactly to the run's total cycle count.
    total = sum(row["cycles"] for row in report["functions"])
    assert total == report["result"]["total_cycles"]
    assert report["stats"]["misses"] >= 1


def test_trace_subcommand_on_source_file(source_file, tmp_path):
    out_path = tmp_path / "prog.trace.json"
    code, output = run_cli(
        "trace", source_file, "--system", "block", "--out", str(out_path)
    )
    assert code == 0
    _load_valid_trace(out_path)


def test_trace_subcommand_baseline_with_accesses(source_file, tmp_path):
    out_path = tmp_path / "prog.trace.json"
    code, output = run_cli(
        "trace", source_file, "--system", "baseline",
        "--out", str(out_path), "--accesses", "7",
    )
    assert code == 0
    assert "memory" in output and "fetch" in output
    _load_valid_trace(out_path)


def test_trace_subcommand_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        run_cli("trace", "no-such-benchmark")


def test_main_cli_trace_flag(source_file, tmp_path):
    out_path = tmp_path / "run.trace.json"
    code, output = run_cli(
        source_file, "--system", "swapram", "--trace", str(out_path)
    )
    assert code == 0
    assert "0x002a" in output
    assert "trace" in output
    trace = _load_valid_trace(out_path)
    names = {e.get("name") for e in trace["traceEvents"] if e["ph"] == "B"}
    assert "main" in names
    assert out_path.with_suffix(".report.json").exists()


def test_main_cli_without_trace_flag_writes_nothing(source_file, tmp_path):
    code, _ = run_cli(source_file, "--system", "swapram")
    assert code == 0
    assert list(tmp_path.glob("*.json")) == []


def test_difftest_divergence_dumps_trace(tmp_path):
    from repro.difftest.cli import dump_divergence_trace
    from repro.difftest.generator import generate_program
    from repro.difftest.runner import corrupt_one_reloc, run_differential

    program = generate_program(3)
    report = run_differential(program, fault=corrupt_one_reloc)
    assert not report.ok  # the injected fault must be detected
    path = dump_divergence_trace(tmp_path, report, program)
    assert path is not None
    trace = _load_valid_trace(path)
    assert trace["otherData"]["divergence"]
    assert path.with_suffix(".report.json").exists()


def test_difftest_report_carries_full_results():
    from repro.difftest.runner import run_differential

    report = run_differential(7)
    assert report.ok
    for name, cycles in report.cycles.items():
        record = report.results[name]
        assert record["total_cycles"] == cycles
        assert record["instructions"] > 0
        assert "energy_nj" in record


def test_trace_subcommand_refuses_policy_for_baseline(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("trace", "crc", "--system", "baseline", "--policy", "stack")
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert "'baseline'" in error and "policy" in error


def test_trace_subcommand_accepts_every_registry_name(tmp_path):
    out_path = tmp_path / "crc-wb.trace.json"
    code, output = run_cli(
        "trace", "crc", "--system", "datacache-wb", "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.with_suffix(".report.json").read_text())
    total = sum(row["cycles"] for row in report["functions"])
    assert total == report["result"]["total_cycles"]
