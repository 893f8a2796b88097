"""One registry of every system the reproduction builds.

Every result is a (benchmark, system) point, so every CLI, harness and
runner answers "which system is this name?" here and nowhere else. A
:class:`SystemSpec` holds what those callers need to know about one
system: its canonical name and aliases, its two build stages (``link``
and ``attach``, see :mod:`repro.toolchain.build`), the ``system``
string its replay traces carry (``capture_kind``), the knobs each
stage takes, and its exact-sum invariants.

::

    from repro import systems
    from repro.toolchain import PLANS

    system = systems.build("swapram", source, PLANS["unified"], policy="stack")
    result = system.run()
    assert systems.spec("swapram").problems(system) == []

:func:`build` composes the stages into a
:class:`~repro.toolchain.build.System` for every entry, so callers read
``system.board``, ``system.runtime`` and ``system.stats`` the same way
for every entry; the replay engine runs the same stages, so a system
that builds also replays. Adding a system is one :class:`SystemSpec` in
:data:`SPECS` plus its two stages.

Every entry point then describes the point it runs as one frozen
:class:`RunSpec` -- program, system, knobs, plan, clock and limits --
and hands it to :func:`run`, which builds, watches, runs and judges it::

    outcome = systems.run(RunSpec.of("crc", system="swapram", policy="stack"))
    assert not outcome.dnf and outcome.problems == []
"""

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from repro.bench import BENCHMARK_NAMES, get_benchmark
from repro.blockcache.system import attach_blockcache, link_blockcache
from repro.core.policy import POLICIES
from repro.core.thrash import ThrashGuard
from repro.core.system import attach_swapram, link_swapram
from repro.datacache.cache import DataCacheConfig
from repro.datacache.system import attach_datacache
from repro.difftest.invariants import check_blockcache_stats, check_swapram_system
from repro.machine import PowerFailure, RunawayError, install_fused_counters
from repro.toolchain import PLANS, FitError, compile_program
from repro.toolchain.build import attach_baseline, build_system, link_baseline

#: Every knob a stage may take; a spec's ``options`` is a subset.
KNOBS = ("policy", "cache_limit", "thrash_guard", "prefetcher", "slot_bytes")


@dataclass(frozen=True)
class SystemSpec:
    """Everything the callers need to know about one system."""

    name: str
    #: ``(program, plan, **link_knobs) -> Artefacts``: a pure function.
    link: Callable
    #: ``(board, artefacts, **runtime_knobs) -> runtime``: constructs
    #: the runtime on a loaded board and installs it (``None`` for none).
    attach: Callable
    #: The ``system`` string of this system's RPRT trace headers.
    capture_kind: str
    #: ``System -> list[str]``: exact-sum invariant violations of a
    #: finished run; empty means they hold.
    problems: Callable
    aliases: tuple = ()
    #: The knobs (from :data:`KNOBS`) the link stage takes.
    link_options: frozenset = frozenset()
    #: The knobs (from :data:`KNOBS`) the attach stage takes.
    attach_options: frozenset = frozenset()

    @property
    def options(self):
        """Every knob this system takes, at either stage."""
        return self.link_options | self.attach_options


def _attach_swapram(board, artefacts, policy="queue", **knobs):
    return attach_swapram(board, artefacts, POLICIES[policy], **knobs)


def _no_problems(system):
    return []


def _blockcache_problems(system):
    return check_blockcache_stats(system.stats)


def _datacache_problems(system):
    return system.stats.invariant_problems(system.runtime.model.line_words)


def _datacache(name, config, aliases=()):
    """A data-cache entry: the baseline link, one fixed configuration.

    ``config=`` at attach time overrides it (capture and replay use
    this).
    """
    return SystemSpec(
        name=name,
        link=link_baseline,
        attach=partial(attach_datacache, config=config),
        capture_kind="datacache",
        problems=_datacache_problems,
        aliases=aliases,
    )


SPECS = (
    SystemSpec(
        name="baseline",
        link=link_baseline,
        attach=attach_baseline,
        capture_kind="baseline",
        problems=_no_problems,
    ),
    SystemSpec(
        name="swapram",
        link=link_swapram,
        attach=_attach_swapram,
        capture_kind="swapram",
        problems=check_swapram_system,
        attach_options=frozenset(
            {"policy", "cache_limit", "thrash_guard", "prefetcher"}
        ),
    ),
    SystemSpec(
        name="blockcache",
        link=link_blockcache,
        attach=attach_blockcache,
        capture_kind="block",
        problems=_blockcache_problems,
        aliases=("block",),
        # The pass sizes its tables for the cache, so the limit is both.
        link_options=frozenset({"cache_limit", "slot_bytes"}),
        attach_options=frozenset({"cache_limit"}),
    ),
    # The crash question for a data cache is a (mode, cleaning)
    # question, so each interesting corner is its own system.
    _datacache("datacache-wt", DataCacheConfig(mode="through", cleaning="none")),
    _datacache(
        "datacache-wb",
        DataCacheConfig(mode="back", cleaning="alru"),
        aliases=("datacache",),
    ),
    _datacache("datacache-acp", DataCacheConfig(mode="back", cleaning="acp")),
)

#: Canonical name -> spec.
SYSTEMS = {entry.name: entry for entry in SPECS}
_CANONICAL = {
    name: entry.name for entry in SPECS for name in (entry.name, *entry.aliases)
}
#: Every accepted spelling, each alias after its canonical name: the
#: CLIs' ``--system`` choices.
NAMES = tuple(_CANONICAL)


def spec(name):
    """The spec for a canonical name or alias; ``ValueError`` if unknown."""
    if name not in _CANONICAL:
        raise ValueError(f"unknown system {name!r} (one of: {', '.join(NAMES)})")
    return SYSTEMS[_CANONICAL[name]]


def for_capture(kind):
    """The first spec whose traces carry *kind*; the entries sharing a
    capture kind share their stages and knobs."""
    return next(entry for entry in SPECS if entry.capture_kind == kind)


def checked_options(name, **options):
    """*options* minus ``None`` values, checked against *name*'s spec.

    Raises ``ValueError`` naming the system and the knob for a knob it
    does not take; keywords that are not knobs pass through.
    """
    entry = spec(name)
    options = {key: value for key, value in options.items() if value is not None}
    for key in options:
        if key in KNOBS and key not in entry.options:
            raise ValueError(f"system {name!r} takes no {key} option")
    return options


def build(name, source, plan, frequency_mhz=24, **options):
    """Build (without running) system *name* for *source* on *plan*.

    *options* are the spec's knobs; ``None`` values are dropped, so
    callers can pass unset command-line flags straight through. Each
    knob goes to the stage that takes it, a data-cache ``config`` to
    the attach stage, and every other keyword (``counters``) to the
    board.
    """
    entry = spec(name)
    options = checked_options(name, **options)

    def stage(keys):
        return {key: options[key] for key in keys if key in options}

    return build_system(
        source,
        plan,
        partial(entry.link, **stage(entry.link_options)),
        partial(entry.attach, **stage(entry.attach_options | {"config"})),
        frequency_mhz,
        **{k: v for k, v in options.items() if k not in KNOBS and k != "config"},
    )


@dataclass(frozen=True)
class RunSpec:
    """One run: a program on one system, plan and clock, with limits.

    The knobs are plain values; one the system does not take raises
    ``ValueError`` here, so every spec that exists can be built.
    ``thrash_guard`` asks for a fresh :class:`~repro.core.ThrashGuard`
    per build. *datacache* is a
    :class:`~repro.datacache.cache.DataCacheConfig` in place of a
    data-cache entry's own. *scale* records the input scale the
    program was generated at.
    """

    source: str = field(repr=False)
    system: str = "baseline"
    #: The debug words a correct run prints; ``None`` checks nothing.
    expected: tuple = None
    label: str = ""
    policy: str = None
    cache_limit: int = None
    thrash_guard: bool = False
    slot_bytes: int = None
    datacache: object = None
    plan: str = "unified"
    cache_reserve: int = 0
    mhz: float = 24
    scale: int = 1
    max_instructions: int = 50_000_000
    #: A cycle budget: exceeding it is a watchdog DNF.
    max_cycles: int = None

    def __post_init__(self):
        if self.expected is not None:
            object.__setattr__(self, "expected", tuple(self.expected))
        checked_options(self.system, **self._knobs())
        if self.datacache is not None:
            if self.entry.capture_kind != "datacache":
                raise ValueError(f"system {self.system!r} takes no datacache option")
            self.datacache.validated()

    @classmethod
    def of(cls, program, scale=1, **fields):
        """The spec for a benchmark name or a mini-C file path.

        A benchmark brings its expected output; a file is labelled by
        its stem. ``OSError`` if *program* is neither.
        """
        if program in BENCHMARK_NAMES:
            bench = get_benchmark(program, scale=scale)
            fields = {"expected": bench.expected, "label": program, **fields}
            return cls(bench.source, scale=scale, **fields)
        path = Path(program)
        try:
            source = path.read_text()
        except OSError as error:
            raise OSError(
                f"{program!r} is neither a benchmark "
                f"({', '.join(BENCHMARK_NAMES)}) nor a readable file: {error}"
            ) from error
        return cls(source, scale=scale, **{"label": path.stem, **fields})

    @property
    def name(self):
        """``label/system/plan``: how fault campaigns name a target."""
        return f"{self.label}/{self.system}/{self.plan}"

    @property
    def entry(self):
        """The :class:`SystemSpec` of this spec's system."""
        return spec(self.system)

    def _knobs(self):
        return {
            "policy": self.policy,
            "cache_limit": self.cache_limit,
            "thrash_guard": ThrashGuard() if self.thrash_guard else None,
            "slot_bytes": self.slot_bytes,
        }

    @property
    def datacache_config(self):
        """The data-cache configuration this spec runs, or ``None``."""
        if self.entry.capture_kind != "datacache":
            return None
        return self.datacache or self.entry.attach.keywords["config"]

    @property
    def memory_plan(self):
        """The :class:`~repro.toolchain.MemoryPlan`, cache reserve applied."""
        plan = PLANS[self.plan]
        if self.cache_reserve:
            plan = plan.with_cache_reserve(self.cache_reserve)
        return plan

    def build(self, program=None, **board_kwargs):
        """Build (without running) this spec's system.

        *program* is the compiled source, when the caller compiled it;
        *board_kwargs* (``counters``) pass to the board. Raises
        ``FitError`` when the binary does not fit the plan.
        """
        return build(
            self.system,
            self.source if program is None else program,
            self.memory_plan,
            self.mhz,
            config=self.datacache,
            **self._knobs(),
            **board_kwargs,
        )


@dataclass
class RunOutcome:
    """What :func:`run` saw: the system, the result and the verdict."""

    spec: RunSpec
    #: ``None`` when the build did not fit.
    system: object
    #: ``None`` on a DNF.
    result: object
    #: ``"fit"`` (the binary does not fit the plan) or ``"watchdog"``
    #: (the cycle watchdog or the instruction guard stopped the run)
    #: for a DNF, else empty.
    dnf: str
    #: The exception behind a DNF, else ``None``.
    error: Exception
    #: An output mismatch, then the spec's exact-sum violations.
    problems: list
    #: What each ``attach`` returned, in attach order.
    sessions: list
    #: ``compile``, ``build`` and ``run`` wall-clock phases.
    timer: object

    @property
    def dnf_reason(self):
        """``"<dnf>: <error>"`` for a DNF, else empty."""
        return f"{self.dnf}: {self.error}" if self.dnf else ""

    def checked(self):
        """This outcome; ``AssertionError`` naming a DNF or the problems."""
        if self.dnf or self.problems:
            verdict = self.dnf_reason or "; ".join(self.problems)
            raise AssertionError(f"{self.spec.label}/{self.spec.system}: {verdict}")
        return self


def run(spec, attach=()):
    """Build, watch, run and judge one :class:`RunSpec`.

    Each ``attach(system)`` runs after the build and the watchdog and
    before the run; what it returns, unless ``None``, is finished with
    ``finish(result)`` after the run, also when the run raises (the
    result is then ``None``). A binary that does not fit and a run the
    watchdog or the instruction guard stops are DNFs, not errors.
    """
    from repro.metrics.registry import PhaseTimer

    timer = PhaseTimer()
    try:
        with timer.phase("compile"):
            program = compile_program(spec.source)
        with timer.phase("build"):
            system = spec.build(program)
    except FitError as error:
        return RunOutcome(spec, None, None, "fit", error, [], [], timer)
    if spec.max_cycles is not None:
        install_fused_counters(system.board).cycle_fuse = spec.max_cycles
    sessions = []
    result = None
    try:
        for hook in attach:
            sessions.append(hook(system))
        with timer.phase("run"):
            result = system.run(max_instructions=spec.max_instructions)
    except (PowerFailure, RunawayError) as error:
        return RunOutcome(spec, system, None, "watchdog", error, [], sessions, timer)
    finally:
        for session in reversed(sessions):
            if session is not None:
                session.finish(result)
    problems = []
    if spec.expected is not None and tuple(result.debug_words) != spec.expected:
        problems.append(
            f"wrong output {result.debug_words[:8]} != {list(spec.expected[:8])}"
        )
    problems += spec.entry.problems(system)
    return RunOutcome(spec, system, result, "", None, problems, sessions, timer)
