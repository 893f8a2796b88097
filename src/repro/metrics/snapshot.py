"""Benchmark snapshots: the ``BENCH_<n>.json`` perf trajectory.

A snapshot is one schema-versioned JSON document capturing how fast the
repo runs *right now*: for every (benchmark, system) point of the quick
matrix it records the guest-side quantities the paper's claims are made
of (cycles, stalls, FRAM/SRAM traffic, energy) and the host-side
quantities the ROADMAP's "fast as the hardware allows" goal is judged
by (per-phase wall-clock, simulated instructions per host second).
Snapshots at the repo root -- ``BENCH_1.json``, ``BENCH_2.json``, ... --
form the performance trajectory every perf PR is measured against;
:mod:`repro.metrics.compare` is the gate between any two of them.
"""

import json
import platform
import re
import time
from pathlib import Path

from repro import systems
from repro.bench import QUICK_NAMES, get_benchmark
from repro.metrics.instrument import MetricsSession
from repro.metrics.registry import MetricsRegistry, PhaseTimer
from repro.toolchain import FitError

SCHEMA = "repro-bench-snapshot/1"

#: The trace-replay engine measured as a system of its own: the row's
#: guest metrics are asserted bit-identical to the executed swapram
#: run before it is recorded, so the snapshot job doubles as an
#: equivalence check; its host metrics track replay speed.
REPLAY_SYSTEM = "swapram-replay"

#: Systems measured by default. ``block`` is opt-in: the prior-work
#: comparison point matters for the paper artifacts, not for tracking
#: this repo's own hot paths. The two data-cache rows pin the
#: write-back win: ``datacache-wb`` (default back/alru configuration)
#: must beat ``datacache-wt`` (through/none) on write-heavy kernels
#: and lose nowhere. Every executed row's exact-sum invariants
#: (``SystemSpec.problems``) are asserted before it is recorded.
DEFAULT_SYSTEMS = (
    "baseline",
    "swapram",
    REPLAY_SYSTEM,
    "datacache-wt",
    "datacache-wb",
)

#: Every system a snapshot can measure: the registry's plus replay.
SNAPSHOT_SYSTEMS = (*systems.NAMES, REPLAY_SYSTEM)

#: The ablation grid timed by ``measure_replay_grid``: every eviction
#: policy crossed with an uncapped, a mid, and a thrashing cache limit.
REPLAY_GRID_POLICIES = ("queue", "stack", "cost_aware")
REPLAY_GRID_LIMITS = (None, 0x180, 0xC0)

_GUEST_KEYS = (
    "instructions",
    "unstalled_cycles",
    "stall_cycles",
    "total_cycles",
    "fram_accesses",
    "sram_accesses",
    "code_accesses",
    "data_accesses",
    "runtime_us",
    "energy_nj",
)

def snapshot_run(
    benchmark,
    system,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    max_instructions=80_000_000,
):
    """Measure one (benchmark, system) point; returns its snapshot row.

    Phases are timed separately so compile-time and run-time host
    regressions are distinguishable: ``compile`` is mini-C -> assembly,
    ``build`` is instrument + assemble + link + load (the assembler runs
    inside the linker), ``run`` is the simulation itself. A wrong output
    or a violated exact-sum invariant raises ``AssertionError``.
    """
    if system == REPLAY_SYSTEM:
        row, _ = _snapshot_replay_run(
            benchmark,
            plan_name=plan_name,
            frequency_mhz=frequency_mhz,
            scale=scale,
            max_instructions=max_instructions,
        )
        return row
    spec = systems.RunSpec.of(
        benchmark,
        scale=scale,
        system=system,
        plan=plan_name,
        mhz=frequency_mhz,
        max_instructions=max_instructions,
    )
    outcome = systems.run(spec, (MetricsSession.attach,))
    timer = outcome.timer
    row = {
        "benchmark": benchmark,
        "system": system,
        "plan": plan_name,
        "dnf": bool(outcome.dnf),
    }
    if outcome.dnf:
        row["dnf_reason"] = str(outcome.error)
        row["host"] = {"phases": timer.as_dict()}
        return row
    result = outcome.checked().result
    run_s = timer.seconds("run")
    row["guest"] = {key: result.as_dict()[key] for key in _GUEST_KEYS}
    row["host"] = {
        "run_s": run_s,
        "build_s": timer.seconds("compile") + timer.seconds("build"),
        "instructions_per_s": result.instructions / run_s if run_s else 0.0,
        "phases": timer.as_dict(),
    }
    if outcome.system.stats is not None:
        row["stats"] = outcome.system.stats.as_dict()
    row["metrics"] = outcome.sessions[0].registry.as_dict()
    return row


def _snapshot_replay_run(
    benchmark,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    max_instructions=80_000_000,
):
    """Measure the replay engine on one benchmark; returns (row, engine).

    Captures the swapram run through the real CPU (``capture`` phase),
    replays the captured configuration, and refuses to record the row
    unless replay is bit-identical to the execution it shadowed --
    result, statistics and raw counters alike.
    """
    from repro.replay import ReplayEngine, capture_source
    from repro.replay.reference import diff_outcome

    program = get_benchmark(benchmark, scale=scale)
    timer = PhaseTimer()
    row = {
        "benchmark": benchmark,
        "system": REPLAY_SYSTEM,
        "plan": plan_name,
        "dnf": False,
    }
    try:
        with timer.phase("capture"):
            document, target, result = capture_source(
                program.source,
                system="swapram",
                plan_name=plan_name,
                frequency_mhz=frequency_mhz,
                scale=scale,
                benchmark=benchmark,
                max_instructions=max_instructions,
            )
    except FitError as error:
        row["dnf"] = True
        row["dnf_reason"] = str(error)
        row["host"] = {"phases": timer.as_dict()}
        return row, None

    registry = MetricsRegistry()
    engine = ReplayEngine(document, metrics=registry)
    with timer.phase("run"):
        outcome = engine.replay()
    problems = diff_outcome(target, result, outcome)
    if problems:
        raise AssertionError(
            f"{benchmark}/{REPLAY_SYSTEM}: replay diverged from "
            f"execution: {problems[:5]}"
        )

    row["guest"] = {key: outcome.result.as_dict()[key] for key in _GUEST_KEYS}
    row["host"] = {
        "run_s": outcome.seconds,
        "build_s": engine.build_seconds + engine.compile_seconds,
        "prepare_s": engine.prepare_seconds,
        "capture_s": timer.seconds("capture"),
        "events_per_s": outcome.events_per_s,
        "instructions_per_s": (
            outcome.result.instructions / outcome.seconds
            if outcome.seconds
            else 0.0
        ),
        "phases": timer.as_dict(),
    }
    row["stats"] = outcome.stats.as_dict()
    row["metrics"] = registry.as_dict()
    return row, engine


def measure_replay_grid(
    benchmark,
    engine=None,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    max_instructions=80_000_000,
    policies=REPLAY_GRID_POLICIES,
    cache_limits=REPLAY_GRID_LIMITS,
):
    """Time one ablation grid via replay vs full execution.

    Every cell is asserted bit-identical before the timing is trusted.
    Returns the snapshot's ``replay_grid`` section: replay wall clock
    (trace already captured -- the store amortises capture across
    sweeps), the one-time capture cost, the execution wall clock, and
    their ratio. This is the number the ISSUE's >= 5x target is judged
    by.
    """
    from repro.replay import ReplayEngine, capture_source
    from repro.replay.reference import diff_outcome, execute_reference

    program = get_benchmark(benchmark, scale=scale)
    capture_s = 0.0
    if engine is None:
        started = time.perf_counter()
        document, _, _ = capture_source(
            program.source,
            system="swapram",
            plan_name=plan_name,
            frequency_mhz=frequency_mhz,
            scale=scale,
            benchmark=benchmark,
            max_instructions=max_instructions,
        )
        capture_s = time.perf_counter() - started
        engine = ReplayEngine(document)

    cells = [(policy, limit) for policy in policies for limit in cache_limits]
    started = time.perf_counter()
    outcomes = [
        engine.replay(
            policy=policy, cache_limit=limit, frequency_mhz=frequency_mhz
        )
        for policy, limit in cells
    ]
    replay_s = time.perf_counter() - started

    started = time.perf_counter()
    for (policy, limit), outcome in zip(cells, outcomes):
        target, result = execute_reference(
            program.source,
            system="swapram",
            plan_name=plan_name,
            frequency_mhz=frequency_mhz,
            policy=policy,
            cache_limit=limit,
            max_instructions=max_instructions,
        )
        problems = diff_outcome(target, result, outcome)
        if problems:
            raise AssertionError(
                f"{benchmark} {policy}/{limit}: replay diverged from "
                f"execution: {problems[:5]}"
            )
    execute_s = time.perf_counter() - started

    return {
        "benchmark": benchmark,
        "plan": plan_name,
        "policies": list(policies),
        "cache_limits": list(cache_limits),
        "cells": len(cells),
        "replay_s": replay_s,
        "capture_s": capture_s,
        "execute_s": execute_s,
        "speedup": execute_s / replay_s if replay_s else 0.0,
        "bit_identical": True,
    }


def measure_parallel_sweep(
    benchmark,
    jobs=4,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    policies=REPLAY_GRID_POLICIES,
    cache_limits=REPLAY_GRID_LIMITS,
):
    """Time one compare-execute replay campaign serial vs sharded.

    Captures the benchmark's trace once into a shared store, then runs
    the same policy × cache-limit campaign twice through the sweep
    engine -- ``jobs=1`` and ``jobs=N`` -- in separate roots, asserting
    the merged documents byte-identical before the timings are trusted.
    This is the snapshot's ``parallel_sweep`` section; ``cpu_count`` is
    recorded because the speedup is only meaningful with free cores
    (CI asserts >= 2x on multi-core runners and skips the assertion on
    single-CPU hosts).
    """
    import os
    import shutil
    import tempfile

    from repro.replay import capture_source
    from repro.replay.store import TraceStore
    from repro.sweep import replay_campaign, run_campaign

    program = get_benchmark(benchmark, scale=scale)
    root = tempfile.mkdtemp(prefix="parallel-sweep-")
    try:
        trace_dir = str(Path(root) / "traces")
        document, _, _ = capture_source(
            program.source,
            system="swapram",
            plan_name=plan_name,
            frequency_mhz=frequency_mhz,
            scale=scale,
            benchmark=benchmark,
        )
        TraceStore(trace_dir).save(document)
        config = replay_campaign(
            benchmark,
            policies=policies,
            cache_limits=cache_limits,
            plan=plan_name,
            frequency_mhz=frequency_mhz,
            scale=scale,
            compare_execute=True,
            trace_store=trace_dir,
        )
        serial = run_campaign(config, root=str(Path(root) / "serial"), jobs=1)
        parallel = run_campaign(
            config, root=str(Path(root) / "parallel"), jobs=jobs
        )
        if serial.failed or parallel.failed or not (
            serial.complete and parallel.complete
        ):
            raise AssertionError(
                f"{benchmark}: parallel sweep campaign did not complete clean"
            )
        identical = (
            Path(serial.merged_path).read_bytes()
            == Path(parallel.merged_path).read_bytes()
        )
        if not identical:
            raise AssertionError(
                f"{benchmark}: jobs={jobs} merged document differs from serial"
            )
        return {
            "benchmark": benchmark,
            "plan": plan_name,
            "cells": serial.total,
            "jobs": jobs,
            "cpu_count": os.cpu_count() or 1,
            "serial_s": serial.pool.wall_s,
            "parallel_s": parallel.pool.wall_s,
            "speedup": (
                serial.pool.wall_s / parallel.pool.wall_s
                if parallel.pool.wall_s
                else 0.0
            ),
            "utilization": parallel.pool.utilization,
            "bit_identical": identical,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def take_snapshot(
    benchmarks=QUICK_NAMES,
    systems=DEFAULT_SYSTEMS,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    max_instructions=80_000_000,
    parallel_jobs=None,
    progress=None,
):
    """Run the benchmark × system matrix; returns the snapshot document.

    When the matrix includes ``swapram-replay`` the document also gets
    a ``replay_grid`` section: the first benchmark's full policy ×
    cache-limit ablation grid timed via replay (reusing that
    benchmark's captured trace) and via execution, each cell asserted
    bit-identical. With *parallel_jobs* set, a ``parallel_sweep``
    section times the same grid through the sweep engine serial vs
    sharded (see :func:`measure_parallel_sweep`).
    """
    runs = []
    grid = None
    for benchmark in benchmarks:
        for system in systems:
            if progress is not None:
                progress(f"{benchmark}/{system}")
            if system == REPLAY_SYSTEM:
                row, engine = _snapshot_replay_run(
                    benchmark,
                    plan_name=plan_name,
                    frequency_mhz=frequency_mhz,
                    scale=scale,
                    max_instructions=max_instructions,
                )
                runs.append(row)
                if grid is None and engine is not None:
                    if progress is not None:
                        progress(f"{benchmark}/replay-grid")
                    grid = measure_replay_grid(
                        benchmark,
                        engine=engine,
                        plan_name=plan_name,
                        frequency_mhz=frequency_mhz,
                        scale=scale,
                        max_instructions=max_instructions,
                    )
                continue
            runs.append(
                snapshot_run(
                    benchmark,
                    system,
                    plan_name=plan_name,
                    frequency_mhz=frequency_mhz,
                    scale=scale,
                    max_instructions=max_instructions,
                )
            )
    document = {
        "schema": SCHEMA,
        "suite": {
            "benchmarks": list(benchmarks),
            "systems": list(systems),
            "plan": plan_name,
            "frequency_mhz": frequency_mhz,
            "scale": scale,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "created_unix_s": time.time(),
        },
        "runs": runs,
    }
    if grid is not None:
        document["replay_grid"] = grid
    if parallel_jobs is not None:
        if progress is not None:
            progress(f"{benchmarks[0]}/parallel-sweep x{parallel_jobs}")
        document["parallel_sweep"] = measure_parallel_sweep(
            benchmarks[0],
            jobs=parallel_jobs,
            plan_name=plan_name,
            frequency_mhz=frequency_mhz,
            scale=scale,
        )
    return document


_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def next_snapshot_path(root="."):
    """First unused ``BENCH_<n>.json`` under *root* (1-based)."""
    root = Path(root)
    taken = {
        int(match.group(1))
        for path in root.glob("BENCH_*.json")
        if (match := _BENCH_NAME.match(path.name))
    }
    number = 1
    while number in taken:
        number += 1
    return root / f"BENCH_{number}.json"


def write_snapshot(snapshot, path=None, root="."):
    """Write *snapshot* to *path* (default: the next BENCH_<n>.json)."""
    path = Path(path) if path is not None else next_snapshot_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path):
    """Read and schema-check a snapshot file."""
    document = json.loads(Path(path).read_text())
    problems = validate_snapshot(document)
    if problems:
        raise ValueError(f"{path}: invalid snapshot: {problems}")
    return document


def validate_snapshot(document):
    """Structural check; returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(document, dict):
        return ["snapshot is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    suite = document.get("suite")
    if not isinstance(suite, dict):
        problems.append("missing suite section")
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("missing or empty runs list")
        return problems
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        for key in ("benchmark", "system", "plan"):
            if key not in run:
                problems.append(f"{where}: missing {key!r}")
        if run.get("dnf"):
            continue
        guest = run.get("guest")
        if not isinstance(guest, dict):
            problems.append(f"{where}: missing guest section")
            continue
        for key in _GUEST_KEYS:
            if key not in guest:
                problems.append(f"{where}: guest missing {key!r}")
        host = run.get("host")
        if not isinstance(host, dict) or "run_s" not in host:
            problems.append(f"{where}: missing host timing")
        if isinstance(guest, dict) and "total_cycles" in guest:
            unstalled = guest.get("unstalled_cycles", 0)
            stalls = guest.get("stall_cycles", 0)
            if guest["total_cycles"] != unstalled + stalls:
                problems.append(
                    f"{where}: total_cycles != unstalled + stalls"
                )
    return problems
