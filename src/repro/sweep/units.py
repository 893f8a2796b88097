"""Unit executors: turn one work-unit spec into a deterministic payload.

``execute_unit`` is the single entry point every worker (and the
inline ``--jobs 1`` path) calls. A payload must be plain JSON data and
must be *deterministic* -- no host timings, no timestamps, no object
reprs that embed addresses -- because the merged campaign document is
diffed byte-for-byte across worker counts and resumes. Host wall-clock
lives in the per-unit store record, outside the merged fields.

Executors keep per-process memo caches (experiment runners, replay
engines, fault goldens, ablation baselines) so a worker that serves
many units of one campaign pays each expensive setup once. The caches
are keyed by the spec fields that determine the cached object, never
shared across processes, and irrelevant to determinism -- a memoised
golden run is bit-identical to a fresh one by construction.
"""

import os
import signal
import time

from repro.tracing.runtime import current_recorder
from repro.tracing.span import NULL_SPAN

_RUNNERS = {}
_REPLAY_ENGINES = {}
_FAULT_GOLDENS = {}
_FAULT_TARGETS = {}
_BASELINE_RESULTS = {}


class UnitError(RuntimeError):
    """A unit spec the executors cannot serve."""


def execute_unit(spec):
    """Run one unit; returns its deterministic JSON payload."""
    kind = spec.get("kind")
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise UnitError(f"unknown unit kind {kind!r}")
    return executor(spec)


def reset_caches():
    """Drop every per-process memo (tests and long-lived parents)."""
    for cache in (
        _RUNNERS,
        _REPLAY_ENGINES,
        _FAULT_GOLDENS,
        _FAULT_TARGETS,
        _BASELINE_RESULTS,
    ):
        cache.clear()


# -- kind: run (one ExperimentRunner point) --------------------------------


def _runner_for(spec):
    from repro.experiments.runner import ExperimentRunner

    key = (
        spec.get("scale", 1),
        spec.get("engine", "execute"),
        spec.get("max_instructions", 80_000_000),
        spec.get("max_cycles"),
    )
    if key not in _RUNNERS:
        _RUNNERS[key] = ExperimentRunner(
            scale=key[0], engine=key[1], max_instructions=key[2], max_cycles=key[3]
        )
    return _RUNNERS[key]


def record_payload(record):
    """The deterministic projection of a RunRecord (host timing dropped)."""
    payload = {
        "benchmark": record.benchmark,
        "system": record.system,
        "frequency_mhz": record.frequency_mhz,
        "plan": record.plan_name,
        "dnf": record.dnf,
    }
    if record.dnf:
        payload["dnf_reason"] = record.dnf_reason
        return payload
    payload["correct"] = record.correct
    payload["section_sizes"] = dict(record.section_sizes)
    payload["result"] = record.result.as_dict()
    if record.runtime_stats is not None:
        payload["stats"] = record.runtime_stats.as_dict()
    return payload


def _execute_run(spec):
    runner = _runner_for(spec)
    recorder = current_recorder()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span("run.simulate", attrs={"benchmark": spec["benchmark"]})
    with span:
        record = runner.run(
            spec["benchmark"],
            spec["system"],
            frequency_mhz=spec.get("frequency_mhz", 24),
            plan_name=spec.get("plan", "unified"),
            cache_reserve=spec.get("cache_reserve", 0),
        )
    return record_payload(record)


# -- kind: difftest (one seeded differential program) ----------------------


def _execute_difftest(spec):
    from repro.difftest.generator import generate_program
    from repro.difftest.runner import full_matrix, quick_matrix, run_differential

    seed = spec["seed"]
    size = spec.get("size", "medium")
    quick = spec.get("quick", False)
    recorder = current_recorder()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span("difftest.generate", attrs={"seed": seed})
    with span:
        program = generate_program(seed, size=size)
    configs = quick_matrix() if quick else full_matrix()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span("difftest.matrix", attrs={"configs": len(configs)})
    with span:
        report = run_differential(program, configs)
    return {
        "seed": seed,
        "size": size,
        "matrix": "quick" if quick else "full",
        "ok": report.ok,
        "summary": report.summary(),
        "divergences": [str(divergence) for divergence in report.divergences],
        "anomalies": [str(anomaly) for anomaly in report.anomalies],
    }


# -- kind: fault (one target x schedule case) ------------------------------


def _fault_target(spec):
    from repro.faults.harness import benchmark_target, difftest_target

    label = spec["target"]
    key = (label, spec["system"], spec.get("plan", "unified"), spec.get("scale", 1))
    if key not in _FAULT_TARGETS:
        source, _, name = label.partition(":")
        if source == "bench":
            _FAULT_TARGETS[key] = benchmark_target(
                name,
                spec["system"],
                plan=spec.get("plan", "unified"),
                scale=spec.get("scale", 1),
            )
        elif source == "difftest":
            _FAULT_TARGETS[key] = difftest_target(int(name), spec["system"])
        else:
            raise UnitError(
                f"fault target must be 'bench:<name>' or 'difftest:<seed>', "
                f"got {label!r}"
            )
    return _FAULT_TARGETS[key]


def _execute_fault(spec):
    from repro.faults.harness import run_case, run_golden
    from repro.metrics.registry import MetricsRegistry

    recorder = current_recorder()
    target = _fault_target(spec)
    max_instructions = spec.get("max_instructions", 5_000_000)
    golden_key = (target.name, max_instructions)
    if golden_key not in _FAULT_GOLDENS:
        # Memo-dependent work is recorded det=False: whether it runs
        # depends on which units a process served before this one.
        span = NULL_SPAN
        if recorder is not None:
            span = recorder.span(
                "fault.golden", det=False, attrs={"target": target.name}
            )
        with span:
            _FAULT_GOLDENS[golden_key] = run_golden(
                target, max_instructions=max_instructions
            )
    registry = MetricsRegistry()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span("fault.case", attrs={"schedule": spec["schedule"]})
    with span:
        report = run_case(
            target,
            spec["schedule"],
            spec.get("seed", 1),
            golden=_FAULT_GOLDENS[golden_key],
            max_reboots=spec.get("max_reboots", 16),
            max_instructions=max_instructions,
            recovery=spec.get("recovery", "none"),
            metrics=registry,
        )
    return {"case": report.as_dict(), "metrics": registry.as_dict()}


# -- kind: replay (one cell of a policy x cache-limit grid) ----------------


def _replay_engine(spec):
    from repro.bench import get_benchmark
    from repro.replay import ReplayEngine, capture_source
    from repro.replay.store import TraceStore
    from repro.toolchain import PLANS

    key = (
        spec["benchmark"],
        spec.get("plan", "unified"),
        spec.get("scale", 1),
        spec.get("trace_store"),
    )
    if key in _REPLAY_ENGINES:
        return _REPLAY_ENGINES[key]
    program = get_benchmark(spec["benchmark"], scale=spec.get("scale", 1))
    document = None
    if spec.get("trace_store"):
        from dataclasses import asdict

        store = TraceStore(spec["trace_store"])
        document = store.load(
            "swapram",
            asdict(PLANS[spec.get("plan", "unified")]),
            spec.get("scale", 1),
            program.source,
        )
    if document is None:
        document, _, _ = capture_source(
            program.source,
            system="swapram",
            plan_name=spec.get("plan", "unified"),
            frequency_mhz=spec.get("frequency_mhz", 24),
            scale=spec.get("scale", 1),
            benchmark=spec["benchmark"],
        )
        if spec.get("trace_store"):
            TraceStore(spec["trace_store"]).save(document)
    engine = ReplayEngine(document)
    _REPLAY_ENGINES[key] = engine
    return engine


def _execute_replay(spec):
    from repro.bench import get_benchmark
    from repro.replay.reference import diff_outcome, execute_reference

    recorder = current_recorder()
    engine = _replay_engine(spec)
    policy = spec.get("policy", "queue")
    limit = spec.get("cache_limit")
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span(
            "replay.run", attrs={"policy": policy, "cache_limit": limit}
        )
    with span:
        outcome = engine.replay(
            policy=policy,
            cache_limit=limit,
            frequency_mhz=spec.get("frequency_mhz", 24),
        )
    expected = get_benchmark(spec["benchmark"], scale=spec.get("scale", 1)).expected
    payload = {
        "benchmark": spec["benchmark"],
        "policy": policy,
        "cache_limit": limit,
        "correct": outcome.result.debug_words == expected,
        "result": outcome.result.as_dict(),
        "stats": outcome.stats.as_dict(),
    }
    if spec.get("compare_execute"):
        target, result = execute_reference(
            engine.header["source"],
            system=engine.header["system"],
            plan_name=spec.get("plan", "unified"),
            frequency_mhz=spec.get("frequency_mhz", 24),
            policy=policy,
            cache_limit=limit,
        )
        problems = diff_outcome(target, result, outcome)
        payload["bit_identical"] = not problems
        if problems:
            payload["mismatches"] = [str(problem) for problem in problems]
    return payload


# -- kind: cache_size (one row of the cache-size ablation) -----------------


def _baseline_result(benchmark, frequency_mhz):
    from repro.systems import RunSpec, run

    key = (benchmark, frequency_mhz)
    if key not in _BASELINE_RESULTS:
        recorder = current_recorder()
        span = NULL_SPAN
        if recorder is not None:
            span = recorder.span(
                "cache_size.baseline", det=False, attrs={"benchmark": benchmark}
            )
        with span:
            spec = RunSpec.of(benchmark, mhz=frequency_mhz)
            _BASELINE_RESULTS[key] = run(spec).checked().result
    return _BASELINE_RESULTS[key]


def _execute_cache_size(spec):
    from repro.experiments.ablation import _sweep_row
    from repro.systems import RunSpec, run

    benchmark = spec["benchmark"]
    frequency_mhz = spec.get("frequency_mhz", 24)
    cache_bytes = spec["cache_bytes"]
    baseline = _baseline_result(benchmark, frequency_mhz)
    recorder = current_recorder()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span("cache_size.run", attrs={"cache_bytes": cache_bytes})
    with span:
        if spec.get("engine", "execute") == "replay":
            from repro.bench import get_benchmark

            engine = _replay_engine(spec)
            outcome = engine.replay(
                cache_limit=cache_bytes, frequency_mhz=frequency_mhz
            )
            if outcome.result.debug_words != get_benchmark(benchmark).expected:
                raise UnitError(f"{benchmark}@{cache_bytes}: wrong debug output")
            result, stats = outcome.result, outcome.stats
        else:
            point = RunSpec.of(
                benchmark, system="swapram", cache_limit=cache_bytes, mhz=frequency_mhz
            )
            executed = run(point).checked()
            result, stats = executed.result, executed.system.stats
    return _sweep_row(cache_bytes, baseline, result, stats)


# -- kind: datacache (one cell of a mode x cleaning x geometry grid) -------


def _execute_datacache(spec):
    from repro.datacache.cache import DataCacheConfig
    from repro.systems import RunSpec, run

    benchmark = spec["benchmark"]
    mode = spec.get("mode", "back")
    cleaning = spec.get("cleaning", "alru")
    geometry = spec.get("geometry", "16x2x16")
    payload = {
        "benchmark": benchmark,
        "mode": mode,
        "cleaning": cleaning,
        "geometry": geometry,
    }
    if mode == "through" and cleaning != "none":
        # Cleaning policies only act on dirty lines; write-through never
        # has any. Mark the corner skipped instead of re-measuring the
        # through/none cell under a different label.
        payload["skipped"] = "cleaning is a write-back knob"
        return payload
    config = DataCacheConfig(mode=mode, cleaning=cleaning).with_geometry(geometry)
    point = RunSpec.of(
        benchmark,
        scale=spec.get("scale", 1),
        label=f"{benchmark}/{mode}/{cleaning}/{geometry}",
        system="datacache",
        datacache=config,
        plan=spec.get("plan", "unified"),
        mhz=spec.get("frequency_mhz", 24),
    )
    recorder = current_recorder()
    span = NULL_SPAN
    if recorder is not None:
        span = recorder.span(
            "datacache.run",
            attrs={"benchmark": benchmark, "mode": mode, "cleaning": cleaning},
        )
    with span:
        outcome = run(point)
    outcome.checked()
    payload["correct"] = True
    payload["result"] = outcome.result.as_dict()
    payload["stats"] = outcome.system.stats.as_dict()
    payload["config"] = config.as_dict()
    return payload


# -- kind: probe (engine self-test units; no simulator involved) -----------


def _execute_probe(spec):
    op = spec.get("op", "echo")
    if op == "echo":
        return {"echo": spec.get("value")}
    if op == "fail":
        raise UnitError(spec.get("message", "probe unit asked to fail"))
    if op == "sleep":
        time.sleep(float(spec.get("seconds", 1.0)))
        return {"slept": spec.get("seconds", 1.0)}
    if op == "kill":
        # Simulates a worker lost to the OOM killer / SIGKILL: the unit
        # never completes and must survive as *pending*, not as a result.
        os.kill(os.getpid(), signal.SIGKILL)
    raise UnitError(f"unknown probe op {op!r}")


_EXECUTORS = {
    "run": _execute_run,
    "difftest": _execute_difftest,
    "fault": _execute_fault,
    "replay": _execute_replay,
    "cache_size": _execute_cache_size,
    "datacache": _execute_datacache,
    "probe": _execute_probe,
}
