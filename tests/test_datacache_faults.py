"""Crash consistency of the write-back data cache under power failures.

The pinned contrast behind ``results/faults/datacache-dcguard-seed1.json``:
the ``dcguard`` init-flag idiom survives power loss on the baseline and
under a write-through data cache, but ACP cleaning makes the guard flag
durable before the table it guards -- a power failure in that window is
a silent ``wrong-result``, and the audit names the exact FRAM lines
whose writes died with the power.
"""

import pytest

from repro.datacache.cache import DataCacheConfig
from repro.datacache.demo import GUARD_MAGIC, build
from repro.datacache.system import build_datacache
from repro.faults.consistency import audit_datacache
from repro import systems
from repro.faults.harness import benchmark_target, run_case
from repro.toolchain import PLANS

SCHEDULE = "fixed:0.08"  # inside dcguard's hazard window (see the demo)
SEED = 1


def case_for(system):
    target = benchmark_target("dcguard", system)
    return run_case(target, SCHEDULE, SEED)


def test_fault_harness_knows_the_datacache_variants():
    variants = ("datacache-wt", "datacache-wb", "datacache-acp")
    assert set(variants) <= set(systems.NAMES)
    source, _ = build()
    configs = {
        name: systems.build(name, source, PLANS["unified"]).runtime.config
        for name in variants
    }
    assert configs["datacache-wt"].mode == "through"
    assert configs["datacache-acp"].cleaning == "acp"


def test_program_order_systems_survive_the_guard_idiom():
    for system in ("baseline", "datacache-wt"):
        report = case_for(system)
        assert report.classification == "correct", (system, report.detail)


def test_acp_reordering_breaks_the_guard_idiom():
    report = case_for("datacache-acp")
    assert report.classification == "wrong-result", report.detail
    findings = [
        finding
        for boot in report.boots
        for finding in boot.post_reboot_findings
        if finding.startswith("lost-dirty-line")
    ]
    assert findings, "the audit must name the dropped dirty lines"
    assert any("writes silently lost" in finding for finding in findings)
    assert any("lost-dirty-line" in finding for finding in report.consistency)


def test_audit_names_exact_lines_after_a_drop():
    source, _ = build()
    system = build_datacache(
        source,
        PLANS["unified"],
        config=DataCacheConfig(mode="back", cleaning="none"),
    )
    runtime = system.runtime
    bus = system.board.bus
    lo, _hi = runtime.window[0]
    bus.write(lo, GUARD_MAGIC)  # dirty one line, then pull the plug
    dropped = runtime.power_reset()
    assert [entry["fram_address"] for entry in dropped] == [
        lo - lo % runtime.config.line_bytes
    ]
    findings = audit_datacache(system, post_reboot=True)
    assert findings and findings[0].startswith("lost-dirty-line")
    assert f"{dropped[0]['fram_address']:#06x}" in findings[0]
    assert runtime.stats.lost_dirty_lines == 1

    # A second, clean power cycle reports nothing new post-reboot.
    runtime.power_reset()
    assert audit_datacache(system, post_reboot=True) == []
    # ... but the full-history audit still remembers the first loss.
    assert any(
        "power loss 0" in finding for finding in audit_datacache(system)
    )


@pytest.mark.parametrize("system", ["datacache-wb", "datacache-acp"])
def test_late_failures_find_drained_caches(system):
    # By mid-run the cleaner has drained the init-phase dirty lines:
    # the same write-back configs classify correct at fixed:0.5.
    target = benchmark_target("dcguard", system)
    report = run_case(target, "fixed:0.5", SEED)
    assert report.classification == "correct", (system, report.detail)
