"""One registry of every system the reproduction builds.

Every result is a (benchmark, system) point, so every CLI, harness and
runner answers "which system is this name?" here and nowhere else. A
:class:`SystemSpec` holds what those callers need to know about one
system: its canonical name and aliases, its builder, the ``system``
string its replay traces carry (``capture_kind``), the knobs its
builder takes, and its exact-sum invariants.

::

    from repro import systems
    from repro.toolchain import PLANS

    system = systems.build("swapram", source, PLANS["unified"], policy="stack")
    result = system.run()
    assert systems.spec("swapram").problems(system) == []

Every builder returns a :class:`~repro.toolchain.build.System` (the
baseline entry wraps its board), so callers read ``system.board``,
``system.runtime`` and ``system.stats`` the same way for every entry.
Adding a system is one :class:`SystemSpec` in :data:`SPECS` plus its
builder.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.blockcache.system import build_blockcache
from repro.core.policy import POLICIES
from repro.core.system import build_swapram
from repro.datacache.cache import DataCacheConfig
from repro.datacache.system import build_datacache
from repro.difftest.invariants import check_blockcache_stats, check_swapram_system
from repro.toolchain.build import System, build_baseline

#: Every knob a builder may take; a spec's ``options`` is a subset.
KNOBS = ("policy", "cache_limit", "thrash_guard", "prefetcher", "slot_bytes")


@dataclass(frozen=True)
class SystemSpec:
    """Everything the callers need to know about one system."""

    name: str
    aliases: tuple
    #: ``(source, plan, frequency_mhz=24, **options) -> System``.
    builder: Callable
    #: The ``system`` string of this system's RPRT trace headers.
    capture_kind: str
    #: The knobs (from :data:`KNOBS`) the builder takes.
    options: frozenset
    #: ``System -> list[str]``: exact-sum invariant violations of a
    #: finished run; empty means they hold.
    problems: Callable


def _build_baseline(source, plan, frequency_mhz=24, **board_kwargs):
    board = build_baseline(source, plan, frequency_mhz, **board_kwargs)
    return System(board=board, linked=board.linked)


def _build_swapram(source, plan, frequency_mhz=24, policy="queue", **options):
    return build_swapram(
        source, plan, frequency_mhz, policy_class=POLICIES[policy], **options
    )


def _no_problems(system):
    return []


def _blockcache_problems(system):
    return check_blockcache_stats(system.stats)


def _datacache_problems(system):
    return system.stats.invariant_problems(system.runtime.model.line_words)


def _datacache(name, config, aliases=()):
    """A data-cache entry: the same builder with one fixed configuration.

    ``config=`` at build time overrides it (replay capture uses this).
    """
    return SystemSpec(
        name=name,
        aliases=aliases,
        builder=partial(build_datacache, config=config),
        capture_kind="datacache",
        options=frozenset(),
        problems=_datacache_problems,
    )


SPECS = (
    SystemSpec(
        name="baseline",
        aliases=(),
        builder=_build_baseline,
        capture_kind="baseline",
        options=frozenset(),
        problems=_no_problems,
    ),
    SystemSpec(
        name="swapram",
        aliases=(),
        builder=_build_swapram,
        capture_kind="swapram",
        options=frozenset({"policy", "cache_limit", "thrash_guard", "prefetcher"}),
        problems=check_swapram_system,
    ),
    SystemSpec(
        name="blockcache",
        aliases=("block",),
        builder=build_blockcache,
        capture_kind="block",
        options=frozenset({"cache_limit", "slot_bytes"}),
        problems=_blockcache_problems,
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


def checked_options(name, **options):
    """*options* minus ``None`` values, checked against *name*'s spec.

    Raises ``ValueError`` naming the system and the knob for a knob its
    builder does not take; keywords that are not knobs pass through.
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
    callers can pass unset command-line flags straight through. Other
    keywords -- board keywords such as ``counters``, a data-cache
    ``config`` -- pass straight to the builder.
    """
    options = checked_options(name, **options)
    return spec(name).builder(source, plan, frequency_mhz=frequency_mhz, **options)
