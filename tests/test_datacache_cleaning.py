"""Cleaning policies: who gets written back, and in what order.

ALRU is lazy -- only stale lines, least recently used first; ACP is
aggressive -- any dirty line, ascending address order. That ordering
difference is not cosmetic: it is exactly what decides which idiom the
write-back fault demo breaks (see ``repro.datacache.demo``), so the
order itself is pinned here, policy by policy. So are the parameter
ranges every entry point refuses before a run starts, and the runtime's
promise to consult a policy exactly once per ``interval`` accesses.
"""

import io
import json
from dataclasses import dataclass

import pytest

from repro.bench import get_benchmark
from repro.core.policy import (
    AcpCleaning,
    AlruCleaning,
    NopCleaning,
    make_cleaning,
)
from repro.datacache.cache import DataCacheConfig, DataCacheModel
from repro.datacache.cli import main as datacache_main
from repro.datacache.system import build_datacache
from repro.sweep import datacache_campaign
from repro.sweep.config import CampaignConfig, ConfigError
from repro.systems import RunSpec
from repro.toolchain import PLANS


@dataclass
class _Line:
    tag: int
    last_tick: int
    set_index: int = 0
    dirty_since: int = 0


class _Cache:
    """The minimal surface ``CleaningPolicy.tick`` consumes."""

    def __init__(self, ticks, lines):
        self.ticks = ticks
        self._lines = lines

    def dirty_lines(self):
        return list(self._lines)


def test_nop_never_cleans():
    cache = _Cache(256, [_Line(tag=1, last_tick=0)])
    assert NopCleaning().tick(cache) == ()


def test_alru_cleans_only_between_intervals():
    policy = AlruCleaning(interval=256, batch=1, age=64)
    stale = _Line(tag=1, last_tick=0)
    assert policy.tick(_Cache(255, [stale])) == ()  # off the interval
    assert policy.tick(_Cache(256, [stale])) == [stale]


def test_alru_skips_hot_lines_and_drains_lru_first():
    policy = AlruCleaning(interval=256, batch=2, age=100)
    hot = _Line(tag=1, last_tick=500)  # touched 12 ticks ago: keep
    cold = _Line(tag=9, last_tick=10)
    colder = _Line(tag=5, last_tick=2)
    picked = policy.tick(_Cache(512, [hot, cold, colder]))
    assert picked == [colder, cold]  # least recently used first, no hot


def test_alru_ties_break_on_tag():
    policy = AlruCleaning(interval=1, batch=3, age=0)
    a = _Line(tag=7, last_tick=4)
    b = _Line(tag=3, last_tick=4)
    assert policy.tick(_Cache(100, [a, b])) == [b, a]


def test_acp_cleans_in_address_order_regardless_of_age():
    policy = AcpCleaning(interval=256, batch=2)
    hot_low = _Line(tag=2, last_tick=511)  # just written -- ACP doesn't care
    cold_high = _Line(tag=40, last_tick=1)
    picked = policy.tick(_Cache(512, [cold_high, hot_low]))
    assert picked == [hot_low, cold_high]
    assert policy.tick(_Cache(511, [cold_high])) == ()


def test_make_cleaning_specs_and_errors():
    assert isinstance(make_cleaning("none"), NopCleaning)
    alru = make_cleaning("alru:interval=128,age=64")
    assert (alru.interval, alru.age) == (128, 64)
    for bad in ("nope", "alru:interval", "alru:interval=x", "alru:wat=1"):
        try:
            make_cleaning(bad)
        except ValueError:
            continue
        raise AssertionError(f"spec {bad!r} was accepted")


def test_model_reports_dirty_lines_deterministically():
    # dirty_lines() order (set-major, then slot) is what both policies
    # sort from -- pin that it is a pure function of the access history
    # so cleaning stays reproducible.
    def drive():
        cache = DataCacheModel(
            DataCacheConfig(mode="back", sets=2, ways=2, cleaning="none"),
            base=0x2000,
        )
        for address in (0x9020, 0x9000, 0x9010):
            cache.decide(address, True)
        return [(line.set_index, line.slot, line.tag) for line in cache.dirty_lines()]

    first, second = drive(), drive()
    assert first == second
    assert sorted(tag for _, _, tag in first) == [
        0x9000 // 16, 0x9010 // 16, 0x9020 // 16
    ]
    # Set-major: the set indices come out non-decreasing.
    assert [s for s, _, _ in first] == sorted(s for s, _, _ in first)


# -- parameter ranges ---------------------------------------------------------------

OUT_OF_RANGE = (
    "alru:interval=0",
    "alru:interval=-4",
    "alru:batch=0",
    "alru:age=-1",
    "acp:interval=0",
    "acp:batch=0",
)


@pytest.mark.parametrize("spec", OUT_OF_RANGE)
def test_out_of_range_parameters_are_refused_before_any_run(spec):
    with pytest.raises(ValueError, match="must be an int"):
        make_cleaning(spec)
    config = DataCacheConfig(cleaning=spec)
    assert config.problems()
    with pytest.raises(ValueError):
        RunSpec.of("crc", system="datacache-wb", datacache=config)
    with pytest.raises(ConfigError):
        datacache_campaign(benchmarks=["crc"], cleanings=["alru", spec])


def test_the_range_boundaries_are_accepted():
    policy = make_cleaning("alru:interval=1,batch=1,age=0")
    assert (policy.interval, policy.batch, policy.age) == (1, 1, 0)
    assert make_cleaning("acp:interval=1,batch=1").interval == 1


def test_the_sweep_cli_refuses_a_bad_spec_without_running_a_cell(tmp_path):
    out = io.StringIO()
    path = tmp_path / "sweep.json"
    argv = ["sweep", "--benchmarks", "crc", "--cleanings", "alru:interval=0"]
    assert datacache_main(argv + ["--out", str(path)], out=out) == 2
    assert "interval must be an int >= 1" in out.getvalue()
    assert not path.exists()


def test_a_hand_written_campaign_is_refused_before_any_unit_runs(tmp_path, capsys):
    from repro.sweep.cli import main as sweep_main

    config = tmp_path / "campaign.json"
    config.write_text(
        json.dumps(
            {
                "kind": "datacache",
                "name": "bad-cleaning",
                "params": {"mode": "back"},
                "matrix": {"benchmark": ["crc"], "cleaning": ["alru:interval=0"]},
            }
        )
    )
    root = tmp_path / "sweeps"
    with pytest.raises(SystemExit) as exit_info:
        sweep_main(["run", "--config", str(config), "--root", str(root)])
    assert exit_info.value.code == 2
    assert "interval must be an int >= 1" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize(
    "axes",
    [
        {"params": {"geometry": "16x2x7"}, "matrix": {"benchmark": ["crc"]}},
        {"params": {}, "matrix": {"benchmark": ["crc"], "mode": ["sideways"]}},
    ],
)
def test_every_datacache_campaign_checks_its_cells_at_construction(axes):
    with pytest.raises(ConfigError):
        CampaignConfig("datacache", "bad", **axes)


# -- the runtime consults the policy once per interval ------------------------------


class _CountingCleaning(NopCleaning):
    """Records the tick of every consultation; never cleans."""

    def __init__(self, interval):
        self.interval = interval
        self.consulted = []

    def tick(self, cache):
        self.consulted.append(cache.ticks)
        return ()


def test_runtime_consults_the_policy_once_per_interval():
    policy = _CountingCleaning(interval=64)
    config = DataCacheConfig(mode="back", cleaning=policy)
    system = build_datacache(get_benchmark("crc").source, PLANS["unified"], config)
    system.run()
    ticks = system.runtime.model.ticks
    assert system.runtime.cleaning is policy
    assert policy.consulted == list(range(64, ticks + 1, 64))


def test_write_through_and_nop_never_consult_the_policy():
    assert NopCleaning.interval == 0
    policy = _CountingCleaning(interval=1)
    config = DataCacheConfig(mode="through", cleaning=policy)
    build_datacache(get_benchmark("crc").source, PLANS["unified"], config).run()
    assert policy.consulted == []
