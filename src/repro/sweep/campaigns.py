"""Preset campaign builders for the repo's standard sweep shapes.

Each helper returns a :class:`~repro.sweep.config.CampaignConfig`; the
``repro sweep`` CLI exposes them as ``--preset`` names, and the ported
consumers (``repro faults sweep --jobs``, ``cache_size_sweep(jobs=)``,
the bench snapshot's ``parallel_sweep`` section) build theirs through
the same functions so the unit specs -- and therefore the
content-addressed keys -- agree everywhere.
"""

from repro.sweep.config import CampaignConfig


def difftest_campaign(seed=0, count=20, size="medium", quick=False, name=None):
    """One unit per generated program of a difftest campaign."""
    return CampaignConfig(
        "difftest",
        name or "difftest",
        params={"size": size, "quick": quick},
        matrix={"seed": list(range(seed, seed + count))},
    )


def fault_campaign(
    benchmarks=("crc", "rsa"),
    systems=("baseline", "swapram"),
    schedules=("fixed:0.5", "periodic:0.35", "adversarial:memcpy"),
    difftest_seeds=(),
    seed=1,
    recovery="none",
    scale=1,
    max_reboots=16,
    max_instructions=5_000_000,
    name=None,
):
    """One unit per (target, system, schedule) fault case."""
    targets = [f"bench:{benchmark}" for benchmark in benchmarks]
    targets += [f"difftest:{difftest_seed}" for difftest_seed in difftest_seeds]
    return CampaignConfig(
        "fault",
        name or "faults",
        params={
            "seed": seed,
            "recovery": recovery,
            "scale": scale,
            "max_reboots": max_reboots,
            "max_instructions": max_instructions,
        },
        matrix={
            "target": targets,
            "system": list(systems),
            "schedule": list(schedules),
        },
    )


def replay_campaign(
    benchmark,
    policies=("queue", "stack", "cost_aware"),
    cache_limits=(None, 0x180, 0xC0),
    plan="unified",
    frequency_mhz=24,
    scale=1,
    compare_execute=False,
    trace_store=None,
    name=None,
):
    """One unit per cell of a replay policy x cache-limit grid.

    With *compare_execute* every cell is also fully executed and
    diffed, so the campaign doubles as an equivalence check. Point
    *trace_store* at a :class:`~repro.replay.store.TraceStore`
    directory holding the benchmark's trace to spare each worker the
    capture; workers fall back to capturing (and saving) it themselves.
    """
    params = {
        "benchmark": benchmark,
        "plan": plan,
        "frequency_mhz": frequency_mhz,
        "scale": scale,
        "compare_execute": compare_execute,
    }
    if trace_store is not None:
        params["trace_store"] = str(trace_store)
    return CampaignConfig(
        "replay",
        name or f"replay-{benchmark}",
        params=params,
        matrix={
            "policy": list(policies),
            "cache_limit": list(cache_limits),
        },
    )


def matrix_campaign(
    benchmarks,
    systems=("baseline", "swapram"),
    frequencies=(24,),
    plans=("unified",),
    cache_reserves=(0,),
    scale=1,
    engine="execute",
    max_instructions=80_000_000,
    name=None,
):
    """One unit per ExperimentRunner point (the paper's run matrices)."""
    return CampaignConfig(
        "run",
        name or "matrix",
        params={
            "scale": scale,
            "engine": engine,
            "max_instructions": max_instructions,
        },
        matrix={
            "benchmark": list(benchmarks),
            "system": list(systems),
            "frequency_mhz": list(frequencies),
            "plan": list(plans),
            "cache_reserve": list(cache_reserves),
        },
    )


def cache_size_campaign(
    benchmark, cache_sizes, frequency_mhz=24, engine="execute", name=None
):
    """One unit per cache size of the SwapRAM cache-size ablation."""
    return CampaignConfig(
        "cache_size",
        name or f"cache-size-{benchmark}",
        params={
            "benchmark": benchmark,
            "frequency_mhz": frequency_mhz,
            "engine": engine,
        },
        matrix={"cache_bytes": list(cache_sizes)},
    )


def datacache_campaign(
    benchmarks=("crc", "rc4", "rsa", "lzfx"),
    modes=("through", "back"),
    cleanings=("none", "alru", "acp"),
    geometries=("16x2x16", "8x2x16", "16x2x8"),
    plan="unified",
    frequency_mhz=24,
    scale=1,
    name=None,
):
    """One unit per (benchmark, mode, cleaning, geometry) data-cache cell.

    The executor skips the meaningless corners deterministically
    (cleaning policies only act in write-back mode), so the grid stays
    rectangular -- and therefore resumable and shardable -- while the
    merged document only carries the cells that ran. A mode, cleaning
    spec or geometry no cell could build raises :class:`ConfigError`
    here (as for every ``datacache`` campaign), before any cell runs.
    """
    return CampaignConfig(
        "datacache",
        name or "datacache",
        params={
            "plan": plan,
            "frequency_mhz": frequency_mhz,
            "scale": scale,
        },
        matrix={
            "benchmark": list(benchmarks),
            "mode": list(modes),
            "cleaning": list(cleanings),
            "geometry": list(geometries),
        },
    )


PRESETS = {
    "difftest": difftest_campaign,
    "faults": fault_campaign,
    "replay": replay_campaign,
    "matrix": matrix_campaign,
    "cache-size": cache_size_campaign,
    "datacache": datacache_campaign,
}
