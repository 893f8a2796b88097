"""Design-space ablations beyond the paper's figures.

* :func:`cache_size_sweep` -- SwapRAM performance as the SRAM cache
  shrinks/grows, localising each benchmark's hot-set knee (the
  mechanism behind the AES outlier and the split-SRAM results).
* :func:`hw_cache_sweep` -- sensitivity of the *baseline* to the FRAM
  controller's tiny hardware cache, justifying the paper's premise that
  the 32-byte cache cannot absorb unified-memory contention.
* :func:`mrc_cache_sizes` -- MRC-guided pre-screening for the
  ``cache="fram"`` sweep axis: one :mod:`repro.analysis` reuse profile
  names the cache sizes worth replaying (and predicts, exactly, the
  miss counts the sweep must reproduce -- CI asserts the equality).
"""

from repro import systems
from repro.bench import get_benchmark
from repro.machine.fram_cache import FramReadCache
from repro.systems import RunSpec, run
from repro.toolchain import PLANS


def _sweep_row(cache_size, baseline, result, stats):
    return {
        "cache_bytes": cache_size,
        "speed": baseline.runtime_us / result.runtime_us,
        "energy": result.energy_nj / baseline.energy_nj,
        "fram_ratio": result.fram_accesses / baseline.fram_accesses,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "aborts": stats.aborts,
    }


def cache_size_sweep(benchmark_name, cache_sizes, frequency_mhz=24,
                     engine="execute", jobs=1, cache="sram"):
    """Run SwapRAM with each cache size; returns rows vs the baseline.

    ``engine="replay"`` captures the benchmark once through the real
    CPU and replays the event stream per cache size -- bit-identical
    rows (the cache limit is a free replay dimension for SwapRAM, see
    :mod:`repro.replay.validity`) at a fraction of the wall clock.
    ``jobs > 1`` shards the sizes across a sweep-engine worker pool;
    the rows come back in ``cache_sizes`` order and match ``jobs=1``
    exactly.

    ``cache="fram"`` sweeps the *hardware FRAM line cache* of the
    baseline instead (fully associative, 8-byte lines; sizes are total
    bytes): the axis :func:`mrc_cache_sizes` pre-screens and whose row
    miss counts `repro.analysis`'s reuse profile predicts exactly.
    """
    if cache == "fram":
        if jobs > 1:
            raise ValueError("cache='fram' does not shard (already fast)")
        return _fram_cache_size_sweep(
            benchmark_name, cache_sizes, frequency_mhz, engine
        )
    if cache != "sram":
        raise ValueError(f"cache must be 'sram' or 'fram', got {cache!r}")
    if jobs > 1:
        return _cache_size_sweep_pooled(
            benchmark_name, cache_sizes, frequency_mhz, engine, jobs
        )
    baseline = run(RunSpec.of(benchmark_name, mhz=frequency_mhz)).checked().result
    rows = []
    if engine == "replay":
        from repro.replay import ReplayEngine, capture_source

        bench = get_benchmark(benchmark_name)
        document, _, _ = capture_source(
            bench.source,
            system="swapram",
            plan_name="unified",
            frequency_mhz=frequency_mhz,
            benchmark=benchmark_name,
        )
        replayer = ReplayEngine(document)
        for cache_size in cache_sizes:
            outcome = replayer.replay(
                cache_limit=cache_size, frequency_mhz=frequency_mhz
            )
            assert outcome.result.debug_words == bench.expected
            rows.append(
                _sweep_row(cache_size, baseline, outcome.result, outcome.stats)
            )
        return rows
    for cache_size in cache_sizes:
        spec = RunSpec.of(
            benchmark_name, system="swapram", cache_limit=cache_size, mhz=frequency_mhz
        )
        outcome = run(spec).checked()
        rows.append(
            _sweep_row(cache_size, baseline, outcome.result, outcome.system.stats)
        )
    return rows


def _fram_line_geometry(cache_bytes, line_bytes=8):
    """Fully-associative ``(sets, ways, line_bytes)`` for a byte size."""
    if cache_bytes < line_bytes or cache_bytes % line_bytes:
        raise ValueError(
            f"fram cache size must be a positive multiple of {line_bytes} "
            f"bytes, got {cache_bytes}"
        )
    return (1, cache_bytes // line_bytes, line_bytes)


def _fram_row(cache_bytes, result, fram_cache):
    return {
        "cache_bytes": cache_bytes,
        "lines": fram_cache.sets * fram_cache.ways,
        "hits": fram_cache.hits,
        "misses": fram_cache.misses,
        "hit_rate": fram_cache.hit_rate,
        "stall_cycles": result.stall_cycles,
        "runtime_us": result.runtime_us,
    }


def _fram_cache_size_sweep(benchmark_name, cache_sizes, frequency_mhz, engine):
    """The ``cache="fram"`` axis: baseline vs FRAM line-cache size."""
    bench = get_benchmark(benchmark_name)
    rows = []
    if engine == "replay":
        from repro.replay import ReplayEngine, capture_source

        document, _, _ = capture_source(
            bench.source,
            system="baseline",
            plan_name="unified",
            frequency_mhz=frequency_mhz,
            benchmark=benchmark_name,
        )
        replayer = ReplayEngine(document)
        for cache_bytes in cache_sizes:
            outcome = replayer.replay(
                fram_cache=_fram_line_geometry(cache_bytes),
                frequency_mhz=frequency_mhz,
            )
            assert outcome.result.debug_words == bench.expected
            rows.append(
                _fram_row(
                    cache_bytes, outcome.result, outcome.board.bus.fram_cache
                )
            )
        return rows
    for cache_bytes in cache_sizes:
        sets, ways, line_bytes = _fram_line_geometry(cache_bytes)
        board = systems.build(
            "baseline", bench.source, PLANS["unified"], frequency_mhz
        ).board
        board.bus.fram_cache = FramReadCache(
            sets=sets, ways=ways, line_bytes=line_bytes
        )
        result = board.run()
        assert result.debug_words == bench.expected
        rows.append(_fram_row(cache_bytes, result, board.bus.fram_cache))
    return rows


def mrc_cache_sizes(benchmark_name, points=3, frequency_mhz=24,
                    line_bytes=8):
    """MRC-guided pre-screen: the most informative FRAM cache sizes.

    One single-pass reuse profile over a captured baseline trace ranks
    every cache size by how much of the remaining miss headroom it
    unlocks; the *points* sizes with the largest miss-count drops come
    back (ascending, in bytes) ready to feed
    ``cache_size_sweep(..., cache="fram")`` -- the sweep then spends
    its replays only where the curve actually moves. Returns
    ``(sizes, predicted)`` where ``predicted`` maps each size to the
    exact miss count the sweep must reproduce.
    """
    from repro.analysis import build_stream, reuse_profile
    from repro.replay import capture_source

    bench = get_benchmark(benchmark_name)
    document, _, _ = capture_source(
        bench.source,
        system="baseline",
        plan_name="unified",
        frequency_mhz=frequency_mhz,
        benchmark=benchmark_name,
    )
    profile = reuse_profile(
        build_stream(document, line_bytes=line_bytes), sets=1
    )
    curve = profile.curve()
    drops = []
    previous = profile.touches  # ways=0: everything misses
    for ways, misses in curve:
        drops.append((previous - misses, ways, misses))
        previous = misses
    drops.sort(key=lambda item: (-item[0], item[1]))
    picked = sorted(ways for _, ways, _ in drops[:points])
    sizes = [ways * line_bytes for ways in picked]
    predicted = {
        ways * line_bytes: profile.misses(ways) for ways in picked
    }
    return sizes, predicted


def _cache_size_sweep_pooled(benchmark_name, cache_sizes, frequency_mhz,
                             engine, jobs):
    """The ``jobs > 1`` path: one sweep-engine unit per cache size."""
    import shutil
    import tempfile

    from repro.sweep import CampaignStore, cache_size_campaign, run_campaign
    from repro.sweep.config import unit_key

    config = cache_size_campaign(
        benchmark_name, cache_sizes, frequency_mhz=frequency_mhz, engine=engine
    )
    root = tempfile.mkdtemp(prefix="cache-size-sweep-")
    try:
        outcome = run_campaign(config, root=root, jobs=jobs)
        if not outcome.complete:
            raise RuntimeError(
                f"cache-size sweep incomplete ({outcome.pending} units pending)"
            )
        store = CampaignStore(outcome.directory)
        rows = []
        for cache_size in cache_sizes:
            spec = dict(config.params)
            spec.update({"kind": "cache_size", "cache_bytes": cache_size})
            record = store.read_unit(unit_key(spec))
            if record["status"] != "ok":
                raise RuntimeError(
                    f"{benchmark_name}@{cache_size}: "
                    f"{record['result'].get('error')}"
                )
            rows.append(record["result"])
        return rows
    finally:
        shutil.rmtree(root, ignore_errors=True)


def hw_cache_sweep(benchmark_name, line_counts, frequency_mhz=24):
    """Baseline runtime as the hardware FRAM cache grows (2-way, 8B lines).

    ``line_counts`` are total line counts (sets x 2 ways). The paper's
    platform has 4 lines; the sweep shows how little a modestly larger
    hardware cache would help unified-memory execution, motivating the
    software approach.
    """
    bench = get_benchmark(benchmark_name)
    rows = []
    for lines in line_counts:
        board = systems.build(
            "baseline", bench.source, PLANS["unified"], frequency_mhz
        ).board
        board.bus.fram_cache = FramReadCache(sets=max(lines // 2, 1), ways=2)
        result = board.run()
        assert result.debug_words == bench.expected
        rows.append(
            {
                "lines": lines,
                "cache_bytes": board.bus.fram_cache.total_bytes,
                "runtime_us": result.runtime_us,
                "hit_rate": board.bus.fram_cache.hit_rate,
                "stall_cycles": result.stall_cycles,
            }
        )
    return rows
