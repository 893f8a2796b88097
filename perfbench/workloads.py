"""The four perfbench workloads: their programs, cells, set-up and checks.

A *cell* is one configuration run once from reset with empty modelled
caches: a program under an executed system (``exec-*`` workloads) or a
replay of a captured trace (``ablate-replay``). Every cell's output is
checked, and a cell that fails in any way is recorded with its problems
instead of raising, so one broken cell never hides the rest of a run.

Only the repository's public entry points are driven: the toolchain
(``compile_program``, ``link``), the system builders, ``Board.run`` /
``system.run``, ``capture_source`` and ``ReplayEngine.replay``, and the
observers ``TraceSession``, ``TraceLog`` and ``MetricsSession``.
"""

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bench import QUICK_NAMES, get_benchmark
from repro.core import build_swapram
from repro.core.policy import POLICIES
from repro.datacache.cache import DataCacheConfig
from repro.datacache.system import build_datacache
from repro.difftest import generate_program
from repro.difftest.invariants import check_swapram_system
from repro.machine.tracelog import TraceLog
from repro.metrics.instrument import MetricsSession
from repro.obs.session import TraceSession
from repro.replay import ReplayEngine, capture_source
from repro.replay.reference import diff_outcome
from repro.toolchain import PLANS, build_baseline, compile_program, link

PLAN = PLANS["unified"]

#: Runaway guard: the largest cell (rsa thrashing at 0xC0) retires
#: about 320 K instructions.
MAX_INSTRUCTIONS = 5_000_000

#: Generated programs added to the quick set; workload seed S uses
#: generator seeds 4S .. 4S+3.
DIFFTEST_PROGRAMS = 4

#: The generator does not promise that every program assembles (a long
#: function can put a jump out of range); such a program is replaced by
#: generator seed + this stride, tried until one builds.
SPARE_STRIDE = 1 << 20

WRITE_THROUGH = DataCacheConfig(mode="through", cleaning="none")
WRITE_BACK = DataCacheConfig()  # back / alru


@dataclass(frozen=True)
class Program:
    """A mini-C program with the output the reference semantics give."""

    name: str
    source: str
    expected: Tuple[int, ...]
    #: Part of the fixed quick set (as opposed to seed-generated); the
    #: deterministic guest metrics sum over these cells only, so they
    #: do not move with the workload seed.
    quick: bool


def workload_programs(seed):
    """The fixed quick set plus the seed's four difftest programs.

    Expected output comes from each benchmark's reference model and,
    for generated programs, from the difftest reference ``Evaluator``.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    programs = []
    for name in QUICK_NAMES:
        bench = get_benchmark(name)
        programs.append(Program(name, bench.source, tuple(bench.expected), True))
    for index in range(DIFFTEST_PROGRAMS):
        generator_seed = DIFFTEST_PROGRAMS * seed + index
        while True:
            program = _generated(generator_seed)
            if program is not None:
                break
            generator_seed += SPARE_STRIDE
        programs.append(program)
    return programs


def _generated(generator_seed):
    """The generated program, or None if it cannot be evaluated or built."""
    generated = generate_program(generator_seed, "medium")
    source = generated.render()
    try:
        expected = tuple(generated.evaluate().debug_words)
        build_swapram(source, PLAN)
        build_datacache(source, PLAN)
    except Exception:  # any refusal: choose another program, never fail
        return None
    return Program(f"dt{generator_seed}", source, expected, False)


# -- executed systems ------------------------------------------------------------


@dataclass(frozen=True)
class System:
    """One executed configuration of a program."""

    name: str
    kind: str  # "baseline" | "swapram" | "datacache"
    policy: str = "queue"
    cache_limit: Optional[int] = None
    datacache: Optional[DataCacheConfig] = None
    #: ``"trace"``: TraceSession + TraceLog, as ``repro trace --accesses``
    #: attaches them; ``"metrics"``: MetricsSession, as the bench
    #: snapshot does.
    observers: Optional[str] = None

    def build(self, source):
        if self.kind == "baseline":
            return build_baseline(source, PLAN)
        if self.kind == "swapram":
            return build_swapram(
                source,
                PLAN,
                policy_class=POLICIES[self.policy],
                cache_limit=self.cache_limit,
            )
        return build_datacache(source, PLAN, config=self.datacache)

    def detached(self):
        """The same system with no observers attached."""
        return System(
            f"{self.name}-detached",
            self.kind,
            self.policy,
            self.cache_limit,
            self.datacache,
        )


BASELINE = System("baseline", "baseline")
SWAPRAM = System("swapram", "swapram")
SWAPRAM_PRESSURE = System("swapram-stack-0xc0", "swapram", "stack", 0xC0)
DATACACHE_WT = System("datacache-wt", "datacache", datacache=WRITE_THROUGH)
DATACACHE_WB = System("datacache-wb", "datacache", datacache=WRITE_BACK)
SWAPRAM_TRACED = System("swapram-traced", "swapram", observers="trace")
DATACACHE_WB_METRICS = System(
    "datacache-wb-metrics", "datacache", datacache=WRITE_BACK, observers="metrics"
)


# -- replayed configurations --------------------------------------------------------


@dataclass(frozen=True)
class Replay:
    """One replay of a captured trace; ``trace`` names the capture."""

    name: str
    trace: str  # "swapram" | "baseline"
    policy: Optional[str] = None
    cache_limit: Optional[int] = None
    fram_cache: Optional[Tuple[int, int, int]] = None
    datacache: Optional[DataCacheConfig] = None

    def replay(self, engine):
        if self.trace == "swapram":
            return engine.replay(policy=self.policy, cache_limit=self.cache_limit)
        if self.datacache is not None:
            return engine.replay(datacache=self.datacache)
        return engine.replay(fram_cache=self.fram_cache)


def _limit_name(limit):
    return "full" if limit is None else f"{limit:#x}"


REPLAY_POLICIES = ("queue", "stack", "cost_aware")
REPLAY_LIMITS = (None, 0x180, 0xC0)
REPLAY_GEOMETRIES = ((2, 2, 8), (4, 2, 8), (8, 2, 8), (2, 4, 16))

REPLAYS = tuple(
    Replay(f"replay-{policy}-{_limit_name(limit)}", "swapram", policy, limit)
    for policy in REPLAY_POLICIES
    for limit in REPLAY_LIMITS
) + tuple(
    Replay("replay-fc{}x{}x{}".format(*geometry), "baseline", fram_cache=geometry)
    for geometry in REPLAY_GEOMETRIES
) + (Replay("replay-wt", "baseline", datacache=WRITE_THROUGH),)


# -- cells and their outcomes ----------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    program: Program
    config: object  # System | Replay

    @property
    def id(self):
        return f"{self.program.name}/{self.config.name}"


@dataclass
class CellRun:
    """What one execution of a cell produced."""

    cell: str
    quick: bool
    seconds: float = 0.0  # host seconds of the measured call
    instructions: int = 0
    #: The golden record: ``RunResult.as_dict()`` and the runtime stats.
    guest: Optional[dict] = None
    fram_cache: Optional[dict] = None
    events: int = 0  # replayed trace events
    pass_index: int = 0
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.problems)


def guest_record(result, stats):
    return {
        "result": result.as_dict(),
        "stats": stats.as_dict() if stats is not None else None,
    }


def _output_problems(program, result):
    if tuple(result.debug_words) != program.expected:
        return [
            f"wrong debug words {list(result.debug_words[:8])} != "
            f"{list(program.expected[:8])}"
        ]
    return []


def _stats_problems(system, target):
    if system.kind == "swapram":
        return check_swapram_system(target)
    if system.kind == "datacache":
        return target.stats.invariant_problems(target.runtime.model.line_words)
    return []


class _Observed:
    """The observers one system attaches around its run."""

    def __init__(self, system, target):
        self.session = self.log = self.metrics = None
        if system.observers == "trace":
            self.session = TraceSession.attach(target)
            self.log = TraceLog(target.board.bus, capacity=32).attach()
        elif system.observers == "metrics":
            self.metrics = MetricsSession.attach(target)

    def finish(self, result):
        """Detach (TraceLog before the session it wraps); returns problems."""
        problems = []
        if self.log is not None:
            self.log.detach()
        if self.session is not None:
            self.session.finish(result)
            attributed = self.session.collector.total_cycles
            if result is not None and attributed != result.total_cycles:
                problems.append(
                    f"obs per-function cycles {attributed} != "
                    f"total_cycles {result.total_cycles}"
                )
        if self.metrics is not None:
            self.metrics.finish(result)
        return problems


def run_system(cell, target, timer):
    """Run a built executed-system cell.

    ``timer(function)`` calls *function* and returns ``(value, seconds)``;
    it brackets exactly the run, so observer attach/detach and the
    checks stay outside the measured phase.
    """
    system = cell.config
    record = CellRun(cell.id, cell.program.quick)
    observed = None
    result = None
    try:
        observed = _Observed(system, target)
        result, record.seconds = timer(
            lambda: target.run(max_instructions=MAX_INSTRUCTIONS)
        )
    except Exception as error:  # counted as a failed cell, never raised
        record.problems.append(f"{type(error).__name__}: {error}")
    finally:
        if observed is not None:
            record.problems += observed.finish(result)
    if result is None:
        return record
    board = getattr(target, "board", target)
    stats = getattr(target, "stats", None)
    record.instructions = result.instructions
    record.guest = guest_record(result, stats)
    record.fram_cache = board.bus.fram_cache.as_dict()
    record.problems += _output_problems(cell.program, result)
    record.problems += _stats_problems(system, target)
    return record


def run_replay(cell, engine, timer):
    """Replay one cell against its prepared engine."""
    record = CellRun(cell.id, cell.program.quick)
    try:
        outcome, record.seconds = timer(lambda: cell.config.replay(engine))
    except Exception as error:  # ReplayRefused included: a failed cell
        record.problems.append(f"{type(error).__name__}: {error}")
        return record
    result = outcome.result
    record.instructions = result.instructions
    record.events = outcome.events
    record.guest = guest_record(result, outcome.stats)
    record.fram_cache = outcome.board.bus.fram_cache.as_dict()
    record.problems += _output_problems(cell.program, result)
    if hasattr(outcome.stats, "invariant_problems"):
        record.problems += outcome.stats.invariant_problems(
            outcome.runtime.model.line_words
        )
    return record


# -- workloads --------------------------------------------------------------------


class Workload:
    """A named set of cells with its set-up and its per-pass builds."""

    name = ""
    #: Host seconds one pass takes at the commit that defined the
    #: benchmark (2-core x86 VM); ``--seconds`` is divided by it to fix
    #: the number of passes, and so the sample count, per workload.
    nominal_pass_s = 1.0
    #: Cold set-ups timed per run; ``setup_s`` is their median.
    setup_repeats = 3

    def cells(self, programs):
        raise NotImplementedError

    def setup(self, cells, spans):
        """Cold set-up for every cell; returns (prepared, problems)."""
        raise NotImplementedError

    def fresh(self, cell, prepared):
        """What ``run`` needs to execute *cell* once more from reset."""
        raise NotImplementedError

    def run(self, cell, ready, timer):
        raise NotImplementedError

    def order(self, cells, seed, pass_index):
        """The seeded cell order of one pass."""
        ordered = list(cells)
        random.Random(f"{seed}:{pass_index}").shuffle(ordered)
        return ordered


def _compile_and_link(programs, spans):
    """Compile each program (filling the build cache) and fit-check it.

    Returns ``{program name: problems}`` for the programs that failed.
    """
    problems = {}
    for program in programs:
        try:
            with spans.span("compile", cell=program.name):
                compiled = compile_program(program.source)
            with spans.span("link", cell=program.name):
                link(compiled, PLAN)
        except Exception as error:  # counted as a failed set-up step
            problems[program.name] = [f"{type(error).__name__}: {error}"]
    return problems


def _distinct_programs(cells):
    seen = {}
    for cell in cells:
        seen.setdefault(cell.program.name, cell.program)
    return list(seen.values())


class ExecWorkload(Workload):
    systems = ()

    def cells(self, programs):
        return [
            Cell(program, system) for program in programs for system in self.systems
        ]

    def setup(self, cells, spans):
        problems = _compile_and_link(_distinct_programs(cells), spans)
        prepared = {}
        for cell in cells:
            with spans.span("build", cell=cell.id):
                try:
                    prepared[cell.id] = cell.config.build(cell.program.source)
                except Exception as error:  # FitError is a DNF: a failure
                    problems[cell.id] = [f"{type(error).__name__}: {error}"]
        return prepared, problems

    def fresh(self, cell, prepared):
        target = prepared.pop(cell.id, None)
        return target if target is not None else cell.config.build(cell.program.source)

    def run(self, cell, ready, timer):
        return run_system(cell, ready, timer)


class ExecHot(ExecWorkload):
    name = "exec-hot"
    systems = (BASELINE, SWAPRAM)
    nominal_pass_s = 9.0


class ExecPressure(ExecWorkload):
    name = "exec-pressure"
    systems = (SWAPRAM_PRESSURE, DATACACHE_WT, DATACACHE_WB)
    nominal_pass_s = 19.0


class ExecObserved(ExecWorkload):
    name = "exec-observed"
    systems = (SWAPRAM_TRACED, DATACACHE_WB_METRICS)
    nominal_pass_s = 19.0


class AblateReplay(Workload):
    name = "ablate-replay"
    nominal_pass_s = 17.0
    #: One set-up captures every program under two systems, as long as
    #: a pass itself; it is timed once per run instead of three times.
    setup_repeats = 1

    def cells(self, programs):
        return [Cell(program, replay) for program in programs for replay in REPLAYS]

    def setup(self, cells, spans):
        """Capture each program under swapram and baseline.

        Each capture is then replayed as captured, which both checks the
        replay bit-identical to its capture run and finishes the
        engine's lazy one-time work before any cell is timed.
        """
        programs = _distinct_programs(cells)
        problems = _compile_and_link(programs, spans)
        prepared = {}
        for program in programs:
            for system in ("swapram", "baseline"):
                key = f"{program.name}/capture-{system}"
                try:
                    with spans.span("capture", cell=key):
                        document, target, result = capture_source(
                            program.source,
                            system=system,
                            benchmark=program.name,
                            max_instructions=MAX_INSTRUCTIONS,
                        )
                    engine = ReplayEngine(document)
                    with spans.span("replay", cell=key):
                        outcome = engine.replay()
                    found = diff_outcome(target, result, outcome)
                    found += _output_problems(program, result)
                except Exception as error:  # counted as a failed set-up cell
                    found = [f"{type(error).__name__}: {error}"]
                    engine = None
                if found:
                    problems[key] = found
                prepared[(program.name, system)] = engine
        return prepared, problems

    def fresh(self, cell, prepared):
        return prepared[(cell.program.name, cell.config.trace)]

    def run(self, cell, ready, timer):
        if ready is None:
            return CellRun(cell.id, cell.program.quick, problems=["no capture"])
        return run_replay(cell, ready, timer)


WORKLOADS = {
    workload.name: workload
    for workload in (ExecHot(), ExecPressure(), AblateReplay(), ExecObserved())
}
