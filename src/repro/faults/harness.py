"""The reboot-and-rerun fault harness.

One *case* = (target program+system, fault schedule, campaign seed).
The harness first takes a **golden run** -- never interrupted, timeline
attached -- then rebuilds the system with fused counters and replays it
under the schedule: each blown fuse is a power failure, followed by a
:meth:`~repro.machine.board.Board.power_cycle` (FRAM persists, SRAM
scrambles, CPU resets) and another boot, up to a max-reboot watchdog.

Outcome taxonomy (one classification per case):

* ``correct`` -- a boot ran to the halt port, its debug-word stream
  matches the golden run's, and every FRAM-resident mutable data
  section ended bit-identical to the golden finale.
* ``wrong-result`` -- a boot completed but output or durable data
  diverged (e.g. a non-idempotent program re-entered ``main`` over
  already-mutated FRAM globals).
* ``crash`` -- a boot died on a :class:`SimulationError` (typically a
  call through a dangling redirection entry into scrambled SRAM).
* ``livelock`` -- the case never completed: either the max-reboot
  watchdog expired (periodic budgets below the program's runtime can
  never finish -- SwapRAM restarts ``main`` from scratch every boot) or
  a single boot span exceeded its instruction budget.

``recovery`` models what a crash-aware port would do in ``crt0``:
``none`` is the paper's system verbatim; ``meta`` re-initialises the
cache runtime's FRAM metadata sections (and the host-side policy
mirror) from the pristine image on every reboot, which repairs every
dangling/stale/stuck finding at the cost of losing all cached state.
"""

import random
from dataclasses import dataclass, field, replace

from repro.difftest.generator import generate_program
from repro.faults.consistency import audit_system
from repro.faults.schedule import parse_schedule
from repro.machine.cpu import RunawayError, SimulationError
from repro.machine.observe import observe
from repro.machine.power import FusedAccessCounters, PowerFailure
from repro.metrics.instrument import EventMetrics
from repro.obs.timeline import Timeline
from repro.systems import RunSpec, run

#: Default per-boot instruction budget; quick benchmarks retire ~200k
#: instructions, so 5M means a boot is decisively hung, not just slow.
MAX_INSTRUCTIONS_PER_BOOT = 5_000_000

#: Default reboot watchdog: enough for jittered periodic schedules to
#: find a surviving boot, small enough to bound a livelocked case.
MAX_REBOOTS = 16

#: FRAM sections restored by ``recovery='meta'`` (whichever exist).
RECOVERY_SECTIONS = ("srmeta", "srruntime", "bbmeta", "bbstubs", "bbruntime")

def benchmark_target(benchmark, system, plan="unified", scale=1):
    """A benchmark (or the ``dcguard`` demo) as a fault target."""
    if benchmark == "dcguard":
        # The write-back crash-hazard demo program (not a Table 1
        # benchmark): a persistent init-flag guard whose durability
        # order the cleaning policy controls. See repro.datacache.demo.
        from repro.datacache.demo import build

        source, _ = build(scale=scale)
        return RunSpec(source, system, label=benchmark, plan=plan, scale=scale)
    return RunSpec.of(benchmark, scale=scale, system=system, plan=plan)


def difftest_target(seed, system, plan="unified", size="small"):
    """A seeded difftest-generated program as a fault target."""
    program = generate_program(seed, size=size)
    return RunSpec(program.render(), system, label=f"difftest{seed}", plan=plan)


@dataclass
class GoldenRun:
    """The never-interrupted reference execution of one target."""

    target: RunSpec
    debug_words: list
    output_text: str
    total_cycles: int
    energy_nj: float
    data_sections: dict  # section name -> final bytes (FRAM-resident only)
    timeline_events: list

    def as_dict(self):
        return {
            "debug_words": list(self.debug_words),
            "total_cycles": self.total_cycles,
            "energy_nj": self.energy_nj,
        }


def _persistent_data_sections(board):
    """Final bytes of FRAM-resident mutable data (what power preserves).

    The stack is excluded: its residue is execution detail, not program
    state. SRAM-resident sections are excluded because they are lost at
    the first power cycle by construction.
    """
    linked = board.linked
    sections = {}
    for name in ("data", "bss"):
        if linked.plan.data != "fram":
            continue
        base, size = linked.image.section_extents.get(name, (0, 0))
        if size:
            sections[name] = board.memory.read_bytes(base, size)
    return sections


def run_golden(target, max_instructions=MAX_INSTRUCTIONS_PER_BOOT):
    """Run *target* uninterrupted, timeline attached."""
    timelines = []

    def timeline(system):
        timelines.append(observe(system.board, Timeline(system.board.counters)))

    outcome = run(replace(target, max_instructions=max_instructions), (timeline,))
    if outcome.dnf:
        raise outcome.error
    board = outcome.system.board
    result = outcome.result
    return GoldenRun(
        target=target,
        debug_words=list(result.debug_words),
        output_text=result.output_text,
        total_cycles=result.total_cycles,
        energy_nj=result.energy_nj,
        data_sections=_persistent_data_sections(board),
        timeline_events=list(timelines[0].events),
    )


@dataclass
class BootRecord:
    """One power-on span of a faulted case."""

    index: int
    start_cycle: int
    end_cycle: int
    outcome: str  # 'completed' | 'power-failure' | 'crash' | 'runaway'
    fuse: str = ""
    interrupted_in: str = ""  # attribution of the access that died
    debug_words: list = field(default_factory=list)
    post_reboot_findings: list = field(default_factory=list)

    def as_dict(self):
        record = {
            "index": self.index,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "outcome": self.outcome,
        }
        if self.fuse:
            record["fuse"] = self.fuse
        if self.interrupted_in:
            record["interrupted_in"] = self.interrupted_in
        record["debug_words"] = list(self.debug_words)
        if self.post_reboot_findings:
            record["post_reboot_findings"] = list(self.post_reboot_findings)
        return record


@dataclass
class CaseReport:
    """Everything one fault case observed."""

    target: RunSpec
    schedule: str
    seed: int
    recovery: str
    classification: str
    detail: str
    power_cycles: int
    boots: list
    golden: GoldenRun
    final_cycles: int
    consistency: list  # final-state audit findings (durable metadata)
    resolved_window: str = ""  # adversarial schedules: window actually used
    mismatches: list = field(default_factory=list)

    def as_dict(self):
        record = {
            "label": self.target.label,
            "system": self.target.system,
            "plan": self.target.plan,
            "schedule": self.schedule,
            "seed": self.seed,
            "recovery": self.recovery,
            "classification": self.classification,
            "detail": self.detail,
            "power_cycles": self.power_cycles,
            "boots": [boot.as_dict() for boot in self.boots],
            "golden": self.golden.as_dict(),
            "final_cycles": self.final_cycles,
            "consistency": list(self.consistency),
        }
        if self.resolved_window:
            record["resolved_window"] = self.resolved_window
        if self.mismatches:
            record["mismatches"] = list(self.mismatches)
        return record


def _capture_pristine_metadata(board):
    """Bytes of every cache-metadata FRAM section, straight after load."""
    pristine = {}
    for name in RECOVERY_SECTIONS:
        base, size = board.linked.image.section_extents.get(name, (0, 0))
        if size:
            pristine[name] = (base, board.memory.read_bytes(base, size))
    return pristine


def _recover_metadata(system, board, pristine):
    """The ``recovery='meta'`` reboot hook: re-initialise durable metadata.

    Restores the pristine FRAM metadata sections host-side (modelling a
    crt0 re-init whose cost is not part of the paper's system, hence
    uncharged) and resets the runtime's host-side placement mirror to
    match the now-empty cache.
    """
    for base, blob in pristine.values():
        board.memory.write_bytes(base, blob)
    runtime = system.runtime
    if runtime is None:
        return
    if hasattr(runtime, "policy"):  # SwapRAM
        runtime.policy.reset()
    if hasattr(runtime, "free_slots"):  # block cache
        runtime.free_slots = list(range(runtime.num_slots))
        runtime.cached_blocks = {}


def run_case(
    target,
    schedule_spec,
    seed,
    golden=None,
    max_reboots=MAX_REBOOTS,
    max_instructions=MAX_INSTRUCTIONS_PER_BOOT,
    recovery="none",
    metrics=None,
):
    """Run one fault case to classification; returns a :class:`CaseReport`.

    *golden* may be passed in to share one golden run across schedules.
    *metrics* is an optional :class:`~repro.metrics.registry.MetricsRegistry`
    receiving the runtime's and the ``faults.*`` counters.
    """
    if golden is None:
        golden = run_golden(target, max_instructions=max_instructions)
    schedule = parse_schedule(schedule_spec)
    schedule.prepare(golden)
    rng = random.Random(f"faults:{seed}:{target.name}:{schedule_spec}")

    counters = FusedAccessCounters()
    system = target.build(counters=counters)
    board = system.board
    pristine = _capture_pristine_metadata(board) if recovery == "meta" else None
    if metrics is not None:
        observe(board, EventMetrics(metrics))

    boots = []
    classification = None
    detail = ""
    completed_words = None
    boot = 0
    while True:
        fuse = schedule.next_fuse(boot, counters, rng)
        fuse_label = ""
        if fuse is not None:
            fuse.arm(counters)
            fuse_label = f"{fuse.kind}@{fuse.value:.0f}"
        start_cycle = counters.total_cycles
        debug_start = len(board.bus.debug_words)
        if metrics is not None:
            metrics.counter("faults.boots").inc()
        try:
            board.cpu.run(max_instructions=max_instructions)
        except PowerFailure as failure:
            counters.disarm()
            record = BootRecord(
                index=boot,
                start_cycle=start_cycle,
                end_cycle=counters.total_cycles,
                outcome="power-failure",
                fuse=fuse_label,
                interrupted_in=(
                    failure.attribution.value if failure.attribution else ""
                ),
                debug_words=list(board.bus.debug_words[debug_start:]),
            )
            boots.append(record)
            if board.emit is not None:
                board.emit(
                    "faults.power-down",
                    note=f"boot {boot}: {fuse_label} in {record.interrupted_in}",
                )
            if boot >= max_reboots:
                classification = "livelock"
                detail = f"no boot completed within {max_reboots} reboots"
                break
            board.power_cycle(seed=f"{seed}:{target.name}:{boot}")
            if pristine is not None:
                _recover_metadata(system, board, pristine)
            record.post_reboot_findings = audit_system(system, post_reboot=True)
            if board.emit is not None:
                board.emit("faults.power-up", note=f"boot {boot + 1}")
            boot += 1
            continue
        except RunawayError as error:
            counters.disarm()
            boots.append(
                BootRecord(
                    index=boot,
                    start_cycle=start_cycle,
                    end_cycle=counters.total_cycles,
                    outcome="runaway",
                    fuse=fuse_label,
                    debug_words=list(board.bus.debug_words[debug_start:]),
                )
            )
            classification = "livelock"
            detail = str(error)
            break
        except SimulationError as error:
            counters.disarm()
            boots.append(
                BootRecord(
                    index=boot,
                    start_cycle=start_cycle,
                    end_cycle=counters.total_cycles,
                    outcome="crash",
                    fuse=fuse_label,
                    debug_words=list(board.bus.debug_words[debug_start:]),
                )
            )
            classification = "crash"
            detail = str(error)
            break
        counters.disarm()
        completed_words = list(board.bus.debug_words[debug_start:])
        boots.append(
            BootRecord(
                index=boot,
                start_cycle=start_cycle,
                end_cycle=counters.total_cycles,
                outcome="completed",
                fuse=fuse_label,
                debug_words=completed_words,
            )
        )
        break

    mismatches = []
    if classification is None:
        if completed_words != golden.debug_words:
            mismatches.append(
                f"debug words {completed_words[:8]} != golden "
                f"{golden.debug_words[:8]}"
            )
        for name, expected in golden.data_sections.items():
            base, size = board.linked.image.section_extents.get(name, (0, 0))
            actual = board.memory.read_bytes(base, size)
            if actual != expected:
                differing = sum(1 for a, b in zip(actual, expected) if a != b)
                mismatches.append(
                    f"FRAM section {name}: {differing}/{size} bytes differ "
                    "from golden finale"
                )
        classification = "correct" if not mismatches else "wrong-result"
        if mismatches:
            detail = mismatches[0]
    if metrics is not None:
        metrics.counter(f"faults.outcome.{classification}").inc()

    return CaseReport(
        target=target,
        schedule=schedule_spec,
        seed=seed,
        recovery=recovery,
        classification=classification,
        detail=detail,
        power_cycles=sum(1 for b in boots if b.outcome == "power-failure"),
        boots=boots,
        golden=golden,
        final_cycles=counters.total_cycles,
        consistency=audit_system(system),
        resolved_window=getattr(schedule, "resolved_window", "") or "",
        mismatches=mismatches,
    )


class FaultSweep:
    """A deterministic campaign over targets x schedules.

    Memoises golden runs per target so the N schedules of one target
    share a single reference execution.
    """

    def __init__(
        self,
        seed,
        max_reboots=MAX_REBOOTS,
        max_instructions=MAX_INSTRUCTIONS_PER_BOOT,
        recovery="none",
        metrics=None,
    ):
        self.seed = seed
        self.max_reboots = max_reboots
        self.max_instructions = max_instructions
        self.recovery = recovery
        self.metrics = metrics
        self._goldens = {}

    def golden(self, target):
        if target.name not in self._goldens:
            self._goldens[target.name] = run_golden(
                target, max_instructions=self.max_instructions
            )
        return self._goldens[target.name]

    def run(self, targets, schedules):
        """Run the full matrix; returns a list of :class:`CaseReport`."""
        reports = []
        for target in targets:
            golden = self.golden(target)
            for spec in schedules:
                reports.append(
                    run_case(
                        target,
                        spec,
                        self.seed,
                        golden=golden,
                        max_reboots=self.max_reboots,
                        max_instructions=self.max_instructions,
                        recovery=self.recovery,
                        metrics=self.metrics,
                    )
                )
        return reports


def summarize(reports):
    """Classification tally across a sweep's case reports."""
    summary = {"correct": 0, "wrong-result": 0, "crash": 0, "livelock": 0}
    for report in reports:
        summary[report.classification] = summary.get(report.classification, 0) + 1
    return summary
