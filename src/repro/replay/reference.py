"""Full-execution reference runs and bit-exact diffing against replay.

The equivalence contract is checked in one place: run the real CPU for
a configuration, replay the trace for the same configuration, and
compare every observable total -- the run result, the cache-runtime
statistics, and the raw access counters. ``diff_outcome`` returns a
list of human-readable mismatches (empty means bit-identical), shared
by the CLI's ``--compare-execute``, the perf-snapshot job and the
equivalence test suite.
"""

from repro.systems import RunSpec, run

from repro.replay.capture import SWAPRAM


def execute_reference(
    source,
    system=SWAPRAM,
    plan_name="unified",
    frequency_mhz=24,
    policy=None,
    cache_limit=None,
    slot_bytes=None,
    datacache=None,
    max_instructions=50_000_000,
):
    """Build and fully execute one configuration; returns (target, result).

    *system* is any :mod:`repro.systems` name; a knob it does not take
    raises ``ValueError``, and ``None`` keeps the builder's default.
    *datacache* overrides a data-cache system's configuration. A DNF
    raises its ``FitError`` or ``RunawayError``.
    """
    spec = RunSpec(
        source,
        system,
        policy=policy,
        cache_limit=cache_limit,
        slot_bytes=slot_bytes,
        datacache=datacache,
        plan=plan_name,
        mhz=frequency_mhz,
        max_instructions=max_instructions,
    )
    outcome = run(spec)
    if outcome.dnf:
        raise outcome.error
    return outcome.system, outcome.result


def _board_of(target):
    return getattr(target, "board", target)


def _stats_of(target):
    return getattr(target, "stats", None)


def diff_dicts(label, expected, actual):
    """Mismatch strings between two flat dicts of totals."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        left, right = expected.get(key), actual.get(key)
        if left != right:
            problems.append(f"{label}.{key}: executed {left!r} != replayed {right!r}")
    return problems


def diff_counters(executed, replayed):
    """Mismatch strings between two ``AccessCounters``."""
    problems = []
    for name in ("accesses", "instructions", "cycles"):
        left, right = getattr(executed, name), getattr(replayed, name)
        if dict(left) != dict(right):
            for key in sorted(set(left) | set(right), key=repr):
                if left[key] != right[key]:
                    problems.append(
                        f"counters.{name}[{key!r}]: executed {left[key]} "
                        f"!= replayed {right[key]}"
                    )
    if executed.stall_cycles != replayed.stall_cycles:
        problems.append(
            f"counters.stall_cycles: executed {executed.stall_cycles} "
            f"!= replayed {replayed.stall_cycles}"
        )
    return problems


def diff_outcome(target, result, outcome):
    """Every way the replayed *outcome* differs from the executed run.

    Compares the full run-result dict (cycles, accesses, energy, debug
    output), the cache-runtime statistics, and the raw access counters.
    Returns a list of strings; empty means the replay is bit-identical.
    """
    problems = diff_dicts("result", result.as_dict(), outcome.result.as_dict())
    stats = _stats_of(target)
    if stats is not None and outcome.stats is not None:
        problems += diff_dicts("stats", stats.as_dict(), outcome.stats.as_dict())
    elif (stats is None) != (outcome.stats is None):
        problems.append(
            f"stats presence: executed {stats!r} != replayed {outcome.stats!r}"
        )
    problems += diff_counters(
        _board_of(target).counters, outcome.board.counters
    )
    return problems
