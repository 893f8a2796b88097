"""One run description: ``RunSpec`` and ``run()`` against the builders."""

import io

import pytest

from repro import systems
from repro.cli import main
from repro.obs import TraceSession
from repro.replay import capture_source
from repro.systems import RunSpec, run
from repro.toolchain import PLANS

COUNTERS = ("accesses", "instructions", "cycles")


def _counters(system):
    counters = system.board.counters
    totals = {name: dict(getattr(counters, name)) for name in COUNTERS}
    totals["stall_cycles"] = counters.stall_cycles
    return totals


@pytest.mark.parametrize("entry", systems.SPECS, ids=lambda entry: entry.name)
def test_run_matches_the_registry_build(entry):
    outcome = run(RunSpec.of("crc", system=entry.name))
    direct = systems.build(entry.name, outcome.spec.source, PLANS["unified"])
    result = direct.run()
    assert not outcome.dnf and outcome.problems == []
    assert outcome.result.as_dict() == result.as_dict()
    assert _counters(outcome.system) == _counters(direct)
    if direct.stats is None:
        assert outcome.system.stats is None
    else:
        assert outcome.system.stats.as_dict() == direct.stats.as_dict()


@pytest.mark.parametrize(
    "system, knob",
    [
        ("baseline", {"cache_limit": 192}),
        ("baseline", {"thrash_guard": True}),
        ("swapram", {"slot_bytes": 48}),
        ("blockcache", {"policy": "stack"}),
        ("datacache-wb", {"cache_limit": 192}),
    ],
)
def test_a_knob_the_system_does_not_take_is_refused_at_construction(system, knob):
    (name,) = knob
    with pytest.raises(ValueError, match=f"'{system}' takes no {name}"):
        RunSpec("int main(void) { return 0; }", system, **knob)


def test_specs_are_hashable_and_equal_by_value():
    left = RunSpec.of("crc", system="swapram", policy="stack", cache_limit=0x180)
    right = RunSpec.of("crc", system="swapram", policy="stack", cache_limit=0x180)
    assert left == right and hash(left) == hash(right)
    assert left != RunSpec.of("crc", system="swapram", policy="queue")
    assert len({left, right}) == 1


def test_a_plan_too_small_is_a_fit_dnf():
    outcome = run(RunSpec.of("crc", plan="all_sram"))
    assert outcome.dnf == "fit"
    assert outcome.system is None and outcome.result is None
    assert outcome.dnf_reason.startswith("fit: plan 'all_sram'")


def test_max_cycles_is_a_watchdog_dnf():
    outcome = run(RunSpec.of("crc", system="swapram", max_cycles=1000))
    assert outcome.dnf == "watchdog"
    assert outcome.result is None
    assert "cycle fuse" in outcome.dnf_reason


def test_a_wrong_expected_output_is_a_problem():
    spec = RunSpec.of("crc", expected=[1, 2, 3])
    outcome = run(spec)
    assert outcome.problems and "wrong output" in outcome.problems[0]
    with pytest.raises(AssertionError, match="crc/baseline: wrong output"):
        outcome.checked()


def test_an_attached_session_is_finished_when_the_run_raises():
    sessions = []

    def trace(system):
        sessions.append(TraceSession.attach(system))
        return sessions[-1]

    def explode(system):
        def broken_run(max_instructions):
            raise RuntimeError("boom")

        system.run = broken_run

    with pytest.raises(RuntimeError, match="boom"):
        run(RunSpec.of("crc", system="swapram"), (trace, explode))
    (session,) = sessions
    assert session.board.observers == []
    assert not session.timer.running("traced-run")


def test_each_build_gets_its_own_thrash_guard():
    spec = RunSpec.of("crc", system="swapram", thrash_guard=True, cache_limit=0xC0)
    first, second = run(spec), run(spec)
    assert first.system.runtime.thrash_guard is not second.system.runtime.thrash_guard
    assert first.result.as_dict() == second.result.as_dict()


# -- the knob rule is the same at every entry point ------------------------------


def _cli(args):
    out = io.StringIO()
    try:
        status = main(args, out=out)
    except SystemExit as exit_:
        status = exit_.code
    return status, out.getvalue()


@pytest.mark.parametrize(
    "args",
    [
        ["replay", "capture", "crc", "--system", "baseline", "--cache-limit", "192"],
        ["replay", "capture", "crc", "--system", "swapram", "--slot-bytes", "32"],
        ["replay", "capture", "crc", "--system", "blockcache", "--policy", "stack"],
    ],
)
def test_replay_capture_refuses_a_knob_like_every_cli(args, tmp_path, capsys):
    status, _ = _cli([*args, "--store", str(tmp_path)])
    assert status == 2
    assert "takes no" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.trace"))


def test_capture_source_keeps_its_keyword_call():
    source = """
int twice(int x) { return 2 * x; }
int main(void) { __debug_out(twice(7)); return 0; }
"""
    for system in ("swapram", "baseline"):
        document, target, result = capture_source(
            source, system=system, benchmark=None, max_instructions=100_000
        )
        assert result.debug_words == [14]
        assert document.header["system"] == systems.spec(system).capture_kind
    assert target.runtime is None


def test_replay_run_compares_against_the_captured_data_cache(tmp_path):
    capture = ["replay", "capture", "crc", "--system", "datacache-wt"]
    assert _cli([*capture, "--store", str(tmp_path)])[0] == 0
    (trace,) = tmp_path.glob("*.trace")
    status, text = _cli(["replay", "run", str(trace), "--compare-execute"])
    assert status == 0, text
    assert "bit-identical" in text
