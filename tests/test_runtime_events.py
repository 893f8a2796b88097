"""Runtime events through the observation seam.

The cache runtimes report each event once, through ``board.emit``; every
timeline and every metrics registry observing the board gets all of
them, whatever the attach and finish order. A power failure can cut a
runtime between where it starts counting some work and where the
timeline records it, so both points are events of their own; the
faulted runs below check that the registry still equals the runtime's
stats.
"""

from itertools import permutations

import pytest

from repro import systems
from repro.datacache.cache import DataCacheConfig
from repro.faults.harness import run_case, run_golden
from repro.machine.observe import observe, unobserve
from repro.metrics import MetricsRegistry, MetricsSession
from repro.obs import Timeline, TraceSession
from repro.obs.timeline import CALL_KINDS
from repro.systems import RunSpec
from repro.toolchain import PLANS

#: ``middle`` calls ``leaf``: in a 0x180-byte cache the two cannot both
#: be resident, so every second miss aborts on a live victim.
THRASH = """
int leaf(int x) {
    int total = x;
    total += 1; total += 2; total += 3; total += 4; total += 5;
    total += 6; total += 7; total += 8; total += 9; total += 10;
    return total;
}
int middle(int x) {
    int total = leaf(x);
    total -= 1; total -= 2; total -= 3; total -= 4; total -= 5;
    total -= 6; total -= 7; total -= 8; total -= 9; total -= 10;
    return total + leaf(total);
}
int main(void) {
    int acc = 0;
    int i;
    for (i = 0; i < 4; i++) { acc = middle(acc); acc = leaf(acc); }
    __debug_out(acc);
    return 0;
}
"""

WRITE_HEAVY = """
int table[96];
int main(void) {
    int i;
    int round;
    unsigned acc = 0;
    for (round = 0; round < 3; round++) {
        for (i = 0; i < 96; i++) {
            table[i] = (table[i] + i * 3 + round) & 0xFFFF;
        }
    }
    for (i = 0; i < 96; i++) {
        acc = (acc + table[i]) & 0xFFFF;
    }
    __debug_out(acc);
    return 0;
}
"""

#: A 64-byte write-back cache behind a promotion gate: fills, evict
#: writebacks, bypasses and the halt flush all happen.
SMALL_WB = DataCacheConfig(mode="back", sets=2, ways=2, promote_after=2)

BUILDS = {
    "swapram": lambda: systems.build(
        "swapram", THRASH, PLANS["unified"], policy="stack", cache_limit=0x180
    ),
    "datacache-wb": lambda: systems.build(
        "datacache-wb", WRITE_HEAVY, PLANS["unified"], config=SMALL_WB
    ),
}

EXPECTED_KINDS = {
    "swapram": {"miss", "cache", "evict", "abort", "nvm-fallback"},
    "datacache-wb": {"line-fill", "writeback", "bypass"},
}

ATTACH = {
    "first": TraceSession.attach,
    "second": TraceSession.attach,
    "metrics": MetricsSession.attach,
    "faults": lambda system: observe(system.board, Timeline(system.board.counters)),
}

FINISH = {
    "first": lambda session, system, result: session.finish(result),
    "second": lambda session, system, result: session.finish(result),
    "metrics": lambda session, system, result: session.finish(result),
    "faults": lambda timeline, system, result: unobserve(system.board, timeline),
}

ORDERS = list(permutations(ATTACH))
#: Every attach order, each paired with a different finish order, so
#: every finish order runs once too.
ORDER_PAIRS = list(zip(ORDERS, ORDERS[7:] + ORDERS[:7]))


def _runtime_events(timeline):
    return [
        event.as_dict() for event in timeline.events if event.kind not in CALL_KINDS
    ]


def _observed_run(name, attach_order, finish_order):
    system = BUILDS[name]()
    observers = {key: ATTACH[key](system) for key in attach_order}
    result = system.run()
    for key in finish_order:
        FINISH[key](observers[key], system, result)

    timelines = [
        observers["first"].timeline,
        observers["second"].timeline,
        observers["faults"],
    ]
    events = [_runtime_events(timeline) for timeline in timelines]
    assert events[0] == events[1] == events[2], (attach_order, finish_order)
    assert system.board.emit is None and system.board.observers == []
    return {
        "result": result.as_dict(),
        "stats": system.stats.as_dict(),
        "events": events[0],
        "metrics": {
            metric: value
            for metric, value in observers["metrics"].registry.as_dict().items()
            if not metric.startswith("host.")
        },
    }


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_subscriber_gets_every_runtime_event_in_any_order(name):
    plain = BUILDS[name]()
    unobserved = plain.run().as_dict()
    reference = _observed_run(name, *ORDER_PAIRS[0])
    assert reference["result"] == unobserved
    assert reference["stats"] == plain.stats.as_dict()
    assert {event["kind"] for event in reference["events"]} >= EXPECTED_KINDS[name]
    for attach_order, finish_order in ORDER_PAIRS[1:]:
        observed = _observed_run(name, attach_order, finish_order)
        assert observed == reference, (attach_order, finish_order)


# -- emission points under power failures --------------------------------------------

TARGETS = {
    "swapram": RunSpec(label="thrash", source=THRASH, system="swapram"),
    "blockcache": RunSpec(label="thrash", source=THRASH, system="blockcache"),
    "datacache-wb": RunSpec(
        label="writeheavy", source=WRITE_HEAVY, system="datacache-wb"
    ),
}

#: ``(registry metric, stats field)`` pairs a power failure must not
#: pull apart, per system.
PAIRS = {
    "swapram": [
        ("swapram.misses", "misses"),
        ("swapram.copied_words", "words_copied"),
    ],
    "blockcache": [
        ("blockcache.entries", "entries"),
        ("blockcache.copied_words", "words_copied"),
    ],
    "datacache-wb": [("datacache.fills", "fills")],
}

#: The golden runs' timelines at the time of writing, as ``kind ->
#: (events, sum of their cycle stamps)``: a runtime event that moved
#: changes a sum.
GOLDEN_STAMPS = {
    "swapram": {"miss": (2, 3489), "cache": (2, 8939)},
    "blockcache": {
        "miss": (142, 5052958),
        "cache": (142, 5100060),
        "chain": (127, 4582916),
        "flush": (6, 220318),
        "hit": (5, 169914),
    },
    "datacache-wb": {
        "line-fill": (15, 137461),
        "clean": (29, 1173746),
        "writeback": (9, 623649),
    },
}


@pytest.fixture(scope="module")
def goldens():
    return {name: run_golden(target) for name, target in TARGETS.items()}


def _stamps(golden):
    stamps = {}
    for event in golden.timeline_events:
        count, total = stamps.get(event.kind, (0, 0))
        stamps[event.kind] = (count + 1, total + event.cycle)
    return stamps


#: How many cycles before a timeline record a failure is aimed: inside
#: the miss handler's table reads, the block lookup, the line fill.
LEAD = 8


def _fault_schedule(golden, window):
    """One power failure inside *window*, as ``(schedule, deadline)``.

    The failure must cut the boot short of the timeline record stamped
    *deadline* (``None``: the adversarial schedule picks the copy).
    """
    if window == "memcpy":
        return "adversarial:memcpy", None

    def first(kind):
        return next(e.cycle for e in golden.timeline_events if e.kind == kind)

    if window == "block-copy":
        # The first block miss takes a free slot: no flush before the copy.
        return f"fixed:{(first('miss') + first('cache')) // 2}", first("cache")
    return f"fixed:{first(window) - LEAD}", first(window)


def _faulted_run(monkeypatch, golden, schedule):
    """Run one fault case; returns its report, its system and its registry."""
    built = []
    build = RunSpec.build

    def capture(target, program=None, **board_kwargs):
        built.append(build(target, program, **board_kwargs))
        return built[-1]

    monkeypatch.setattr(RunSpec, "build", capture)
    registry = MetricsRegistry()
    report = run_case(golden.target, schedule, 1, golden=golden, metrics=registry)
    return report, built[-1], registry


def _metric_value(registry, name):
    if name not in registry:
        return 0
    metric = registry[name]
    return metric.total if hasattr(metric, "total") else metric.value


def test_golden_timeline_stamps_are_unchanged(goldens):
    stamps = {name: _stamps(golden) for name, golden in goldens.items()}
    assert stamps == GOLDEN_STAMPS


@pytest.mark.parametrize(
    "name, window, interrupted_in",
    [
        ("swapram", "memcpy", "memcpy"),
        ("swapram", "miss", "runtime"),
        ("blockcache", "block-copy", "memcpy"),
        ("blockcache", "miss", "runtime"),
        ("datacache-wb", "line-fill", "memcpy"),
    ],
)
def test_registry_equals_stats_when_power_fails_mid_work(
    monkeypatch, goldens, name, window, interrupted_in
):
    golden = goldens[name]
    schedule, deadline = _fault_schedule(golden, window)
    report, system, registry = _faulted_run(monkeypatch, golden, schedule)
    died = report.boots[0]
    assert died.outcome == "power-failure"
    assert died.interrupted_in == interrupted_in
    assert deadline is None or died.end_cycle < deadline
    assert report.boots[-1].outcome == "completed"
    for metric, field in PAIRS[name]:
        expected = getattr(system.stats, field)
        assert _metric_value(registry, metric) == expected, metric
