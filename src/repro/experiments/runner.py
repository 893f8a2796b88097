"""Shared, memoized execution of (benchmark, system, config) points.

Every evaluation artifact draws from the same run matrix -- Table 2,
Figure 8 and Figure 9 all reuse one run per (benchmark, system,
frequency) -- so the runner caches results for the lifetime of the
process. A ``DNF`` outcome (the binary does not fit the platform) is a
first-class result, mirroring Figure 7 / Table 2.

``ExperimentRunner(engine="replay")`` serves points from the trace
replay fast path instead: each (benchmark, system, plan) is captured
once through the real CPU, then every further configuration (clock
frequency today; policies and cache limits via
:mod:`repro.experiments.ablation`) replays the stored event stream
through the same cache/cost/energy models -- bit-identical results,
validated by ``tests/test_replay_equivalence.py``. Configurations the
validity checker refuses (see :mod:`repro.replay.validity`) fall back
to full execution, with the reason kept in ``replay_fallbacks`` and
logged.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.bench import get_benchmark
from repro.metrics.registry import PhaseTimer
from repro.systems import RunSpec, run
from repro.toolchain import FitError

BASELINE = "baseline"
SWAPRAM = "swapram"
BLOCK = "block"
SYSTEMS = (BASELINE, BLOCK, SWAPRAM)
ENGINES = ("execute", "replay")

logger = logging.getLogger(__name__)


@dataclass
class RunRecord:
    """One simulated run (or a DNF)."""

    benchmark: str
    system: str
    frequency_mhz: float
    plan_name: str
    dnf: bool = False
    dnf_reason: str = ""
    correct: Optional[bool] = None
    result: object = field(default=None, repr=False)
    section_sizes: dict = field(default_factory=dict)
    size_report: dict = field(default_factory=dict)
    runtime_stats: object = field(default=None, repr=False)
    host_build_s: float = 0.0  # wall-clock to compile + link + load
    host_run_s: float = 0.0  # wall-clock of the simulation itself

    @property
    def host_instructions_per_s(self):
        """Simulated instructions per host second (simulator speed)."""
        if self.dnf or self.result is None or not self.host_run_s:
            return 0.0
        return self.result.instructions / self.host_run_s

    @property
    def fram_accesses(self):
        return self.result.fram_accesses

    @property
    def unstalled_cycles(self):
        return self.result.unstalled_cycles

    @property
    def total_cycles(self):
        return self.result.total_cycles

    @property
    def runtime_us(self):
        return self.result.runtime_us

    @property
    def energy_nj(self):
        return self.result.energy_nj

    @property
    def nvm_bytes(self):
        """Loadable NVM footprint: everything except SRAM-resident data."""
        skip = {"bss"} if self.plan_name != "unified" else set()
        return sum(
            size for name, size in self.section_sizes.items() if name not in skip
        )


def geo_mean_ratio(ratios):
    """Geometric mean of positive ratios (the paper's Δ columns)."""
    values = [value for value in ratios if value and value > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(value) for value in values) / len(values))


class ExperimentRunner:
    """Builds, runs and caches benchmark/system/config combinations.

    *max_cycles* optionally arms a cycle watchdog on every run: a point
    that exceeds the budget becomes a first-class DNF row (with
    ``dnf_reason='watchdog: ...'``) instead of stalling the whole sweep
    until the instruction guard trips.
    """

    def __init__(
        self,
        scale=1,
        max_instructions=80_000_000,
        max_cycles=None,
        engine="execute",
        trace_store=None,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
        self.scale = scale
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles
        self.engine = engine
        self.trace_store = trace_store  # a replay.store.TraceStore, or None
        self.replay_fallbacks = []  # (key, reason) pairs, for tests/telemetry
        self._cache = {}
        self._sources = {}
        self._engines = {}  # (benchmark, system, plan, reserve) -> ReplayEngine

    def source(self, benchmark):
        if benchmark not in self._sources:
            self._sources[benchmark] = get_benchmark(benchmark, scale=self.scale)
        return self._sources[benchmark]

    def _spec(self, benchmark, system, frequency_mhz=24, plan_name="unified",
             cache_reserve=0):
        """The :class:`~repro.systems.RunSpec` of one point."""
        program = self.source(benchmark)
        return RunSpec(
            program.source,
            system,
            expected=program.expected,
            label=benchmark,
            plan=plan_name,
            cache_reserve=cache_reserve,
            mhz=frequency_mhz,
            scale=self.scale,
            max_instructions=self.max_instructions,
            max_cycles=self.max_cycles,
        )

    def run(
        self,
        benchmark,
        system,
        frequency_mhz=24,
        plan_name="unified",
        cache_reserve=0,
    ):
        """Run one point; memoized. Returns a :class:`RunRecord`."""
        key = (benchmark, system, frequency_mhz, plan_name, cache_reserve)
        if key in self._cache:
            return self._cache[key]
        if self.engine == "replay":
            record = self._replay(
                benchmark, system, frequency_mhz, plan_name, cache_reserve
            )
        else:
            record = self._execute(
                benchmark, system, frequency_mhz, plan_name, cache_reserve
            )
        self._cache[key] = record
        return record

    def _fall_back(self, key, reason, *point):
        """Log why replay could not serve *point* and execute it instead."""
        self.replay_fallbacks.append((key, reason))
        logger.info("replay fallback for %s: %s", key, reason)
        return self._execute(*point)

    def _capture_engine(self, benchmark, system, plan_name, cache_reserve):
        """Capture (or load) the trace for a point; memoized per plan.

        Raises ``FitError`` / ``CaptureError`` / ``ReplayRefused`` like
        the underlying build and capture; callers map those onto DNF
        rows or execution fallback.
        """
        from repro.replay.capture import capture
        from repro.replay.engine import ReplayEngine

        key = (benchmark, system, plan_name, cache_reserve)
        if key in self._engines:
            return self._engines[key], 0.0
        spec = self._spec(benchmark, system, plan_name=plan_name,
                         cache_reserve=cache_reserve)
        timer = PhaseTimer()
        document = None
        if self.trace_store is not None:
            from dataclasses import asdict as plan_asdict

            datacache = spec.datacache_config
            document = self.trace_store.load(
                spec.entry.capture_kind,
                plan_asdict(spec.memory_plan),
                self.scale,
                spec.source,
                datacache=datacache and datacache.as_dict(),
            )
        if document is None:
            with timer.phase("capture"):
                document, _, _ = capture(spec, benchmark=benchmark)
            if self.trace_store is not None:
                self.trace_store.save(document)
        engine = ReplayEngine(document)
        self._engines[key] = engine
        return engine, timer.seconds("capture")

    def _replay(self, benchmark, system, frequency_mhz, plan_name, cache_reserve):
        """Serve one point from the replay fast path, or fall back."""
        from repro.replay.capture import CaptureError
        from repro.replay.engine import ReplayError
        from repro.replay.schema import TraceError
        from repro.replay.validity import ReplayRefused

        point = (benchmark, system, frequency_mhz, plan_name, cache_reserve)
        key = (benchmark, system, plan_name, cache_reserve)
        if self.max_cycles is not None:
            return self._fall_back(
                key, "max_cycles watchdog needs real execution", *point
            )
        record = RunRecord(
            benchmark=benchmark,
            system=system,
            frequency_mhz=frequency_mhz,
            plan_name=plan_name,
        )
        try:
            engine, capture_s = self._capture_engine(
                benchmark, system, plan_name, cache_reserve
            )
        except FitError as error:
            record.dnf = True
            record.dnf_reason = f"fit: {error}"
            return record
        except CaptureError as error:
            # capture wraps RunawayError; re-executing would only
            # spin through the same guard again.
            record.dnf = True
            record.dnf_reason = f"watchdog: {error}"
            return record
        except ReplayRefused as error:
            return self._fall_back(key, str(error), *point)
        try:
            outcome = engine.replay(frequency_mhz=frequency_mhz)
        except (ReplayRefused, ReplayError, TraceError) as error:
            return self._fall_back(key, str(error), *point)
        record.host_build_s = capture_s + engine.build_seconds
        engine.build_seconds = 0.0  # charge the one-time rebuild once
        record.host_run_s = outcome.seconds
        record.section_sizes = dict(engine.linked.section_sizes)
        record.runtime_stats = outcome.stats
        record.result = outcome.result
        record.correct = (
            outcome.result.debug_words == self.source(benchmark).expected
        )
        if not record.correct:
            raise AssertionError(
                f"{benchmark}/{system}: wrong replayed output "
                f"{outcome.result.debug_words} != "
                f"{self.source(benchmark).expected}"
            )
        return record

    def _execute(self, benchmark, system, frequency_mhz, plan_name, cache_reserve):
        outcome = run(
            self._spec(benchmark, system, frequency_mhz, plan_name, cache_reserve)
        )
        record = RunRecord(
            benchmark=benchmark,
            system=system,
            frequency_mhz=frequency_mhz,
            plan_name=plan_name,
            host_build_s=outcome.timer.seconds("compile")
            + outcome.timer.seconds("build"),
            host_run_s=outcome.timer.seconds("run"),
        )
        if outcome.dnf:
            record.dnf = True
            record.dnf_reason = outcome.dnf_reason
            return record
        built = outcome.checked().system
        record.section_sizes = dict(built.linked.section_sizes)
        if built.runtime is not None:
            record.size_report = built.size_report()
            record.runtime_stats = built.stats
        record.result = outcome.result
        record.correct = True
        return record

    def size_only(self, benchmark, system, plan_name="unified"):
        """Build without running -- for size/DNF artifacts (Figure 7)."""
        record = RunRecord(
            benchmark=benchmark, system=system, frequency_mhz=0, plan_name=plan_name
        )
        try:
            built = self._spec(benchmark, system, plan_name=plan_name).build()
        except FitError:
            record.dnf = True
            return record
        record.section_sizes = dict(built.linked.section_sizes)
        if built.runtime is not None:
            record.size_report = built.size_report()
        return record
