"""Command-line interface."""

import io

import pytest

from repro.cli import main

PROGRAM = """
int twice(int x) { return x + x; }
int main(void) {
    __debug_out(twice(21));
    __putc('o'); __putc('k');
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


def test_baseline_run(source_file):
    code, output = run_cli(source_file)
    assert code == 0
    assert "0x002a" in output
    assert "text output  : ok" in output
    assert "FRAM" in output and "energy" in output


def test_swapram_run_with_stats(source_file):
    code, output = run_cli(source_file, "--system", "swapram", "--stats")
    assert code == 0
    assert "0x002a" in output
    assert "SwapRamStats" in output


def test_block_run(source_file):
    code, output = run_cli(source_file, "--system", "block")
    assert code == 0
    assert "0x002a" in output


def test_plan_and_frequency_flags(source_file):
    code, fast = run_cli(source_file, "--plan", "standard", "--mhz", "24")
    assert code == 0
    code, slow = run_cli(source_file, "--plan", "standard", "--mhz", "8")
    assert code == 0

    def runtime(text):
        line = next(l for l in text.splitlines() if l.startswith("runtime"))
        return float(line.split(":")[1].split("us")[0])

    assert runtime(slow) > runtime(fast)


def test_listing_flag(source_file):
    code, output = run_cli(source_file, "--system", "swapram", "--listing")
    assert code == 0
    assert "twice:" in output
    assert "CALL" in output


def test_thrash_guard_flag(source_file):
    code, output = run_cli(
        source_file, "--system", "swapram", "--thrash-guard", "--stats"
    )
    assert code == 0
    assert "freezes=0" in output  # tiny program never thrashes


def test_dnf_exit_code(tmp_path):
    blob = "int big[4000];\nint main(void) { big[0] = 1; __debug_out(big[0]); return 0; }\n"
    path = tmp_path / "big.c"
    path.write_text(blob)
    code, output = run_cli(str(path))
    assert code == 2
    assert "DNF" in output


def test_stdin_source(monkeypatch):
    import io as io_module
    import sys

    monkeypatch.setattr(sys, "stdin", io_module.StringIO(PROGRAM))
    code, output = run_cli("-")
    assert code == 0
    assert "0x002a" in output


def test_max_cycles_watchdog_is_a_dnf(source_file):
    code, output = run_cli(source_file, "--max-cycles", "50")
    assert code == 2
    assert "DNF: cycle fuse blew" in output


def test_max_cycles_watchdog_passes_finishing_runs(source_file):
    code, output = run_cli(source_file, "--max-cycles", "10000000")
    assert code == 0
    assert "0x002a" in output


def test_faults_subcommand_dispatches():
    code, output = run_cli("faults", "replay", "--schedule", "fixed:0.5")
    assert code == 2  # reaches the faults CLI (usage error, not argparse)
    assert "exactly one" in output


@pytest.mark.parametrize(
    "system, flags, option",
    [
        ("baseline", ("--thrash-guard",), "thrash_guard"),
        ("block", ("--thrash-guard",), "thrash_guard"),
        ("datacache", ("--cache-limit", "64"), "cache_limit"),
    ],
)
def test_options_a_system_does_not_take_are_refused(
    source_file, capsys, system, flags, option
):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(source_file, "--system", system, *flags)
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert f"'{system}'" in error and option in error


@pytest.mark.parametrize(
    "system", ["blockcache", "datacache-wt", "datacache-wb", "datacache-acp"]
)
def test_every_registry_name_is_a_system_choice(source_file, system):
    code, output = run_cli(source_file, "--system", system, "--stats")
    assert code == 0
    assert "0x002a" in output and "cache stats" in output
