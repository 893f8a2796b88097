"""Replay must be *bit-identical* to execution, cell by cell.

The contract the whole fast path stands on: for any (benchmark, plan,
policy, cache-limit, frequency) configuration whose event stream is
execution-invariant, replaying a captured trace yields exactly the
run result, cache statistics and raw access counters that full
execution yields -- not approximately, byte for byte. Each in-tier
test covers a deliberately different slice of the grid; ``--runslow``
runs the exhaustive quick-benchmark grid and the full nine-benchmark
matrix.
"""

import pytest

from repro.bench import BENCHMARK_NAMES, QUICK_NAMES, get_benchmark
from repro.core import ThrashGuard
from repro.replay import ReplayEngine, ReplayRefused, capture_source
from repro.replay.reference import diff_outcome, execute_reference
from repro.toolchain import FitError

_ENGINES = {}


def engine_for(benchmark, system="swapram", plan_name="unified", **kwargs):
    """One capture per (benchmark, system, plan, config) per session."""
    key = (benchmark, system, plan_name, tuple(sorted(kwargs.items())))
    if key not in _ENGINES:
        bench = get_benchmark(benchmark)
        try:
            document, _, _ = capture_source(
                bench.source,
                system=system,
                plan_name=plan_name,
                benchmark=benchmark,
                **kwargs,
            )
        except FitError as error:
            # A DNF cell DNFs identically under capture and execution:
            # there is no run to compare (Figure 7 / Table 2 semantics).
            pytest.skip(f"{benchmark}/{system}/{plan_name} does not fit: {error}")
        _ENGINES[key] = ReplayEngine(document)
    return _ENGINES[key]


def assert_cell_identical(
    benchmark,
    system="swapram",
    plan_name="unified",
    policy="queue",
    cache_limit=None,
    frequency_mhz=24,
    capture_kwargs=None,
    **replay_kwargs,
):
    """Replay one cell and require it bit-identical to full execution."""
    engine = engine_for(
        benchmark, system=system, plan_name=plan_name, **(capture_kwargs or {})
    )
    if system == "swapram":
        outcome = engine.replay(
            policy=policy,
            cache_limit=cache_limit,
            frequency_mhz=frequency_mhz,
            **replay_kwargs,
        )
    else:
        outcome = engine.replay(frequency_mhz=frequency_mhz, **replay_kwargs)
    target, result = execute_reference(
        get_benchmark(benchmark).source,
        system=system,
        plan_name=plan_name,
        policy=policy,
        cache_limit=outcome.config["cache_limit"],
        frequency_mhz=frequency_mhz,
        **{
            key: value
            for key, value in (capture_kwargs or {}).items()
            if key == "slot_bytes"
        },
    )
    problems = diff_outcome(target, result, outcome)
    assert not problems, "\n".join(problems)
    expected = get_benchmark(benchmark).expected
    assert outcome.result.debug_words == expected
    assert outcome.events == len(engine.document.records)


# -- swapram: policy and cache limit are free dimensions --------------------------


@pytest.mark.parametrize(
    "policy,cache_limit",
    [
        ("queue", None),
        ("stack", 0x180),
        ("cost_aware", 0xC0),
        ("queue", 0xC0),
        ("stack", None),
    ],
)
def test_swapram_crc_grid_cell(policy, cache_limit):
    assert_cell_identical("crc", policy=policy, cache_limit=cache_limit)


@pytest.mark.parametrize("bench_name", [name for name in QUICK_NAMES if name != "crc"])
@pytest.mark.parametrize(
    "policy,cache_limit", [("queue", None), ("cost_aware", 0xC0)]
)
def test_swapram_quick_benchmarks(bench_name, policy, cache_limit):
    assert_cell_identical(bench_name, policy=policy, cache_limit=cache_limit)


def test_swapram_standard_plan():
    assert_cell_identical(
        "crc", plan_name="standard", policy="stack", cache_limit=0x180
    )


def test_swapram_frequency_is_free():
    """One 24 MHz capture replays an 8 MHz run exactly (wait states and
    stalls are recomputed, not recorded)."""
    assert_cell_identical("crc", policy="queue", cache_limit=None, frequency_mhz=8)


def test_swapram_thrash_guard_dimension():
    engine = engine_for("crc")
    outcome = engine.replay(
        policy="queue", cache_limit=0xC0, thrash_guard=ThrashGuard()
    )
    from repro.core import build_swapram
    from repro.toolchain import PLANS

    target = build_swapram(
        get_benchmark("crc").source,
        PLANS["unified"],
        cache_limit=0xC0,
        thrash_guard=ThrashGuard(),
    )
    result = target.run()
    problems = diff_outcome(target, result, outcome)
    assert not problems, "\n".join(problems)


# -- block cache: same-geometry replay only ---------------------------------------


def test_block_crc_as_captured():
    assert_cell_identical("crc", system="block")


def test_block_capped_geometry():
    assert_cell_identical(
        "rc4", system="block", capture_kwargs={"cache_limit": 0x180}
    )


def test_block_refuses_other_geometry():
    engine = engine_for("crc", system="block")
    with pytest.raises(ReplayRefused):
        engine.replay(cache_limit=0x100)


def test_block_refuses_policy():
    engine = engine_for("crc", system="block")
    with pytest.raises(ReplayRefused):
        engine.replay(policy="stack")


# -- baseline: only the clock may vary --------------------------------------------


def test_baseline_as_captured():
    assert_cell_identical("crc", system="baseline", policy=None)


def test_baseline_frequency_sweep_cell():
    assert_cell_identical("crc", system="baseline", policy=None, frequency_mhz=8)


def test_baseline_refuses_cache_knobs():
    engine = engine_for("crc", system="baseline")
    with pytest.raises(ReplayRefused):
        engine.replay(cache_limit=0x180)


# -- the exhaustive matrices (slow) ----------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("bench_name", QUICK_NAMES)
@pytest.mark.parametrize("plan_name", ["unified", "standard"])
@pytest.mark.parametrize("policy", ["queue", "stack", "cost_aware"])
@pytest.mark.parametrize("cache_limit", [None, 0x180, 0xC0])
def test_full_quick_grid(bench_name, plan_name, policy, cache_limit):
    assert_cell_identical(
        bench_name, plan_name=plan_name, policy=policy, cache_limit=cache_limit
    )


@pytest.mark.slow
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_full_benchmark_matrix(bench_name):
    """Every benchmark in the suite capture-replays bit-identically."""
    assert_cell_identical(bench_name, policy="queue", cache_limit=None)
    assert_cell_identical(bench_name, policy="cost_aware", cache_limit=0x180)
