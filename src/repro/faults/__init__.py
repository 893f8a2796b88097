"""Intermittent-power fault injection and crash-consistency checking.

Energy-harvesting deployments -- the niche the paper targets -- lose
power mid-execution as a matter of course. This package asks what that
does to a software caching runtime whose control metadata lives in
NVRAM but whose cached code lives in SRAM:

* :mod:`repro.faults.schedule` -- deterministic power-failure
  schedules: fixed-cycle probes, jittered harvested-energy budgets, and
  adversarial schedules aimed (via the golden run's obs timeline) at
  SwapRAM-critical windows such as the mid-``memcpy`` cache fill.
* :mod:`repro.faults.harness` -- the reboot-and-rerun loop: golden
  reference run, fused-counter fault runs, power cycles
  (FRAM persists, SRAM scrambles), a max-reboot watchdog, and the
  correct / wrong-result / crash / livelock classification.
* :mod:`repro.faults.consistency` -- the FRAM metadata audit:
  dangling redirections, stale relocations, stuck active counters,
  dangling block-cache slots.
* :mod:`repro.faults.cli` -- ``python -m repro faults sweep|replay``.
"""

from repro.faults.consistency import (
    audit_blockcache,
    audit_swapram,
    audit_system,
)
from repro.faults.harness import (
    BootRecord,
    CaseReport,
    FaultSweep,
    GoldenRun,
    benchmark_target,
    difftest_target,
    run_case,
    run_golden,
    summarize,
)
from repro.faults.schedule import (
    AdversarialSchedule,
    FaultSchedule,
    FixedCycleSchedule,
    Fuse,
    PeriodicBudgetSchedule,
    ScheduleError,
    parse_schedule,
)

__all__ = [
    "audit_blockcache",
    "audit_swapram",
    "audit_system",
    "BootRecord",
    "CaseReport",
    "FaultSweep",
    "GoldenRun",
    "benchmark_target",
    "difftest_target",
    "run_case",
    "run_golden",
    "summarize",
    "AdversarialSchedule",
    "FaultSchedule",
    "FixedCycleSchedule",
    "Fuse",
    "PeriodicBudgetSchedule",
    "ScheduleError",
    "parse_schedule",
]
