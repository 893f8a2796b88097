"""The fault harness: golden runs, reboot loops, classification."""

import json

import pytest

from repro.faults.harness import (
    FaultSweep,
    run_case,
    run_golden,
    summarize,
)
from repro.metrics.registry import MetricsRegistry
from repro.systems import RunSpec

#: Two cacheable helpers (main is blacklisted from the SwapRAM cache),
#: an idempotent FRAM data pattern, and one debug word to compare.
PROGRAM = """
int table[8];
int fill(int k) {
    for (int i = 0; i < 8; i++) table[i] = i * k;
    return k;
}
int total(void) {
    int acc = 0;
    for (int pass = 0; pass < 6; pass++) {
        for (int i = 0; i < 8; i++) acc += table[i];
    }
    return acc;
}
int main(void) {
    fill(3);
    __debug_out(total() & 0xFFFF);
    return 0;
}
"""

#: Rebooting re-enters main over already-incremented FRAM state, so a
#: completed reboot emits a different word: the wrong-result probe.
NON_IDEMPOTENT = """
int boots = 0;
int main(void) {
    boots = boots + 1;
    for (int i = 0; i < 400; i++) { }
    __debug_out(boots);
    return 0;
}
"""


def target(system, source=PROGRAM, label="tiny"):
    return RunSpec(source, system, label=label)


@pytest.fixture(scope="module")
def swapram_golden():
    return run_golden(target("swapram"))


@pytest.fixture(scope="module")
def baseline_golden():
    return run_golden(target("baseline"))


def test_golden_run_shape(swapram_golden):
    golden = swapram_golden
    assert golden.debug_words == [(sum(i * 3 for i in range(8)) * 6) & 0xFFFF]
    assert golden.total_cycles > 0 and golden.energy_nj > 0
    assert any(e.kind == "cache" for e in golden.timeline_events)
    assert "bss" in golden.data_sections  # FRAM-resident under 'unified'


def test_unblown_fuse_classifies_correct(swapram_golden):
    report = run_case(
        target("swapram"), "fixed:99999999", 1, golden=swapram_golden
    )
    assert report.classification == "correct"
    assert report.power_cycles == 0
    assert report.consistency == []  # a clean finish leaves clean metadata


def test_baseline_reboot_is_correct(baseline_golden):
    report = run_case(target("baseline"), "fixed:0.5", 1, golden=baseline_golden)
    assert report.classification == "correct"
    assert report.power_cycles == 1
    assert report.boots[0].outcome == "power-failure"
    assert report.boots[1].outcome == "completed"


def test_adversarial_memcpy_interrupts_the_cache_fill(swapram_golden):
    report = run_case(
        target("swapram"), "adversarial:memcpy", 1, golden=swapram_golden
    )
    assert report.resolved_window == "memcpy"
    first = report.boots[0]
    assert first.outcome == "power-failure"
    assert first.interrupted_in == "memcpy"  # died inside the copy loop
    # The torn fill leaves FRAM metadata pointing at scrambled SRAM.
    assert any(
        finding.startswith("dangling-redirect") or finding.startswith("stuck-active")
        for finding in first.post_reboot_findings
    )
    # SwapRAM is not crash-safe: the reboot cannot classify correct.
    assert report.classification in ("crash", "wrong-result", "livelock")


def test_meta_recovery_repairs_swapram(swapram_golden):
    report = run_case(
        target("swapram"),
        "adversarial:memcpy",
        1,
        golden=swapram_golden,
        recovery="meta",
    )
    assert report.classification == "correct"
    assert report.power_cycles == 1
    assert report.consistency == []


def test_livelock_watchdog(baseline_golden):
    report = run_case(
        target("baseline"),
        "periodic:0.05",
        1,
        golden=baseline_golden,
        max_reboots=4,
    )
    assert report.classification == "livelock"
    assert report.power_cycles == 5  # the watchdog counted every attempt
    assert all(boot.outcome == "power-failure" for boot in report.boots)


def test_non_idempotent_program_goes_wrong_result():
    tgt = target("baseline", source=NON_IDEMPOTENT, label="boots")
    report = run_case(tgt, "fixed:0.5", 1)
    assert report.classification == "wrong-result"
    assert report.mismatches  # both the word and the FRAM global diverge


def test_report_is_bit_reproducible(swapram_golden):
    first = run_case(
        target("swapram"), "periodic:0.35", 9, golden=swapram_golden
    )
    second = run_case(
        target("swapram"), "periodic:0.35", 9, golden=swapram_golden
    )
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


def test_different_seed_moves_the_jitter(swapram_golden):
    reports = [
        run_case(target("swapram"), "periodic:0.35", seed, golden=swapram_golden)
        for seed in (1, 2, 3)
    ]
    fuses = {tuple(b.fuse for b in r.boots) for r in reports}
    assert len(fuses) > 1  # seeds actually steer the schedule


def test_metrics_counters(swapram_golden):
    metrics = MetricsRegistry()
    run_case(
        target("swapram"),
        "adversarial:memcpy",
        1,
        golden=swapram_golden,
        metrics=metrics,
    )
    assert metrics["faults.power_failures"].value == 1
    assert metrics["faults.power_cycles"].value == 1
    assert metrics["faults.boots"].value >= 2


def test_sweep_shares_goldens_and_summarizes():
    sweep = FaultSweep(seed=1)
    reports = sweep.run(
        [target("baseline"), target("swapram")], ["fixed:0.5", "fixed:99999999"]
    )
    assert len(reports) == 4
    assert reports[0].golden is reports[1].golden  # memoized per target
    summary = summarize(reports)
    assert sum(summary.values()) == 4
    assert summary["correct"] >= 3  # baseline x2 + unblown swapram


def test_difftest_target_runs_under_faults():
    from repro.faults.harness import difftest_target

    tgt = difftest_target(3, "swapram", size="small")
    report = run_case(tgt, "fixed:0.5", 1)
    assert report.target.label == "difftest3"
    assert report.classification in ("correct", "wrong-result", "crash", "livelock")
