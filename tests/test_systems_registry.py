"""The system registry: one table names, builds and checks every system."""

import dataclasses
from functools import partial

import pytest

from repro import systems
from repro.blockcache import build_blockcache
from repro.core import build_swapram
from repro.datacache import DataCacheConfig, build_datacache
from repro.metrics import snapshot_run
from repro.replay.validity import check_request
from repro.toolchain import PLANS, build_baseline

SOURCE = """
int table[8];
int helper(int x) { return x * 3 + 1; }
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 8; i++) { table[i] = helper(i); acc = acc + table[i]; }
    __debug_out(acc);
    return 0;
}
"""
EXPECTED = [sum(3 * i + 1 for i in range(8))]

#: The direct builder call each registry name stands for.
DIRECT = {
    "baseline": build_baseline,
    "swapram": build_swapram,
    "blockcache": build_blockcache,
    "block": build_blockcache,
    "datacache-wt": partial(
        build_datacache, config=DataCacheConfig(mode="through", cleaning="none")
    ),
    "datacache-wb": partial(build_datacache, config=DataCacheConfig()),
    "datacache": partial(build_datacache, config=DataCacheConfig()),
    "datacache-acp": partial(build_datacache, config=DataCacheConfig(cleaning="acp")),
}


def test_direct_table_covers_every_name():
    assert set(DIRECT) == set(systems.NAMES)


@pytest.mark.parametrize("name", systems.NAMES)
def test_every_name_builds_what_its_builder_builds(name):
    system = systems.build(name, SOURCE, PLANS["unified"])
    result = system.run()
    direct = DIRECT[name](SOURCE, PLANS["unified"])
    expected = direct.run()
    assert result.debug_words == EXPECTED
    assert result.as_dict() == expected.as_dict()
    direct_stats = getattr(direct, "stats", None)  # the baseline's is a Board
    if direct_stats is None:
        assert system.stats is None and system.runtime is None
    else:
        assert system.stats.as_dict() == direct_stats.as_dict()
    assert system.board.linked is system.linked
    assert systems.spec(name).problems(system) == []


def test_aliases_resolve_to_their_canonical_specs():
    assert systems.spec("block") is systems.SYSTEMS["blockcache"]
    assert systems.spec("datacache") is systems.SYSTEMS["datacache-wb"]
    for spec in systems.SPECS:
        assert systems.spec(spec.name) is spec
        for alias in spec.aliases:
            assert systems.spec(alias) is spec
    assert set(systems.SYSTEMS) == {
        "baseline",
        "swapram",
        "blockcache",
        "datacache-wt",
        "datacache-wb",
        "datacache-acp",
    }


def test_every_spec_takes_only_known_knobs():
    for spec in systems.SPECS:
        assert spec.options <= set(systems.KNOBS), spec.name


def test_unknown_name_lists_the_valid_names():
    with pytest.raises(ValueError, match="unknown system 'nope'") as excinfo:
        systems.build("nope", SOURCE, PLANS["unified"])
    for name in systems.NAMES:
        assert name in str(excinfo.value)


@pytest.mark.parametrize(
    "name, option",
    [
        ("baseline", "thrash_guard"),
        ("block", "policy"),
        ("swapram", "slot_bytes"),
        ("datacache", "cache_limit"),
    ],
)
def test_out_of_spec_option_names_system_and_option(name, option):
    with pytest.raises(ValueError, match=f"'{name}' takes no {option}"):
        systems.build(name, SOURCE, PLANS["unified"], **{option: 64})


def test_none_options_are_dropped_and_knobs_reach_the_builder():
    system = systems.build(
        "swapram", SOURCE, PLANS["unified"], policy=None, thrash_guard=None
    )
    assert system.runtime.policy.name == "queue"
    system = systems.build("swapram", SOURCE, PLANS["unified"], policy="stack")
    assert system.runtime.policy.name == "stack"
    baseline = systems.build("baseline", SOURCE, PLANS["unified"], cache_limit=None)
    assert baseline.runtime is None


def test_snapshot_checks_every_systems_invariants(monkeypatch):
    broken = dataclasses.replace(
        systems.SYSTEMS["swapram"], problems=lambda system: ["misses != 0"]
    )
    monkeypatch.setitem(systems.SYSTEMS, "swapram", broken)
    with pytest.raises(AssertionError, match="misses != 0"):
        snapshot_run("crc", "swapram")


# -- replay validity: which knobs each capture kind refuses ----------------------

#: The (capture kind, knob) pairs replay validity refuses; every other
#: pair is served. Taken from the behaviour before validity read the
#: registry (block geometry requests equal the captured geometry here,
#: so only the knob rule can refuse).
REFUSED = {
    "baseline": {"policy", "cache_limit", "thrash_guard", "prefetcher", "slot_bytes"},
    "swapram": {"slot_bytes"},
    "block": {"policy", "thrash_guard", "prefetcher"},
    "datacache": {"policy", "cache_limit", "thrash_guard", "prefetcher", "slot_bytes"},
}
CAPTURE_CONFIG = {
    "baseline": {},
    "swapram": {"policy": "queue", "cache_limit": 256},
    "block": {"cache_limit": 256, "slot_bytes": 48},
    "datacache": DataCacheConfig(mode="through", cleaning="none").as_dict(),
}
REQUEST = {
    "policy": "stack",
    "cache_limit": 256,
    "thrash_guard": object(),
    "prefetcher": object(),
    "slot_bytes": 48,
}


def test_refusal_table_covers_every_capture_kind():
    assert set(REFUSED) == {spec.capture_kind for spec in systems.SPECS}


@pytest.mark.parametrize("kind", sorted(REFUSED))
@pytest.mark.parametrize("knob", systems.KNOBS)
def test_validity_refuses_exactly_the_tabled_pairs(kind, knob):
    header = {"system": kind, "capture_config": CAPTURE_CONFIG[kind]}
    reasons = check_request(header, **{knob: REQUEST[knob]})
    if knob in REFUSED[kind]:
        assert reasons and knob in reasons[0]
    else:
        assert reasons == []
