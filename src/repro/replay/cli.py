"""The ``repro replay`` subcommand: capture, run, sweep, list.

::

    python -m repro replay capture crc --system swapram
    python -m repro replay capture prog.c --system block --cache-limit 384
    python -m repro replay run results/traces/crc-swapram-unified-*.trace \\
        --policy stack --cache-limit 384 --compare-execute
    python -m repro replay sweep crc --policies queue stack cost_aware \\
        --cache-limits none 384 192
    python -m repro replay list

``capture`` runs a benchmark (or a mini-C file) once through the real
CPU and stores its canonical event stream under ``results/traces/``;
``run`` replays one stored trace against a requested configuration and
prints the usual run report; ``sweep`` replays a whole policy x
cache-limit grid from one trace -- capturing it first if the store has
no valid trace -- and compares the grid's wall clock against full
execution when asked; ``list`` shows what the store holds. See
``docs/replay.md`` for the validity rules behind ``ReplayRefused``
errors.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict

from repro.bench import BENCHMARK_NAMES
from repro.core.policy import POLICIES
from repro.flags import add_campaign_flags, add_run_flags, run_spec

from repro.replay.capture import CaptureError, capture
from repro.replay.engine import AS_CAPTURED, ReplayEngine, ReplayError
from repro.replay.reference import diff_outcome, execute_reference
from repro.replay.schema import TraceError
from repro.replay.store import DEFAULT_ROOT, TraceStore
from repro.replay.validity import ReplayRefused


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Capture canonical event traces and replay them "
        "through the cache/cost/energy models.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _common(sub):
        sub.add_argument(
            "--store",
            default=str(DEFAULT_ROOT),
            metavar="DIR",
            help=f"trace store directory (default: {DEFAULT_ROOT})",
        )

    capture = commands.add_parser(
        "capture", help="execute once, store the event trace"
    )
    capture.add_argument(
        "program",
        help="benchmark name (crc, rc4, ...) or a mini-C source file",
    )
    add_run_flags(
        capture,
        system="swapram",
        plan="unified",
        mhz=24,
        scale=1,
        policy=None,
        cache_limit=None,
        slot_bytes=None,
    )
    _common(capture)

    run = commands.add_parser("run", help="replay one trace file")
    run.add_argument("trace", help="trace file written by capture")
    run.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default=None,
        help="swapram eviction policy (default: as captured)",
    )
    run.add_argument(
        "--cache-limit",
        type=int,
        default=None,
        help="cap the SRAM cache (bytes; default: as captured)",
    )
    run.add_argument(
        "--mhz",
        type=float,
        default=None,
        help="CPU clock in MHz (default: as captured)",
    )
    run.add_argument(
        "--stats", action="store_true", help="print cache-runtime statistics"
    )
    run.add_argument(
        "--compare-execute",
        action="store_true",
        help="also fully execute the same configuration and require "
        "bit-identical totals",
    )

    sweep = commands.add_parser(
        "sweep", help="replay a policy x cache-limit grid from one trace"
    )
    sweep.add_argument(
        "program",
        help="benchmark name (crc, rc4, ...) or a mini-C source file",
    )
    add_run_flags(sweep, plan="unified", mhz=24, scale=1)
    sweep.add_argument(
        "--policies",
        nargs="+",
        default=sorted(POLICIES),
        choices=sorted(POLICIES),
        metavar="POLICY",
        help=f"policies to sweep (default: {' '.join(sorted(POLICIES))})",
    )
    sweep.add_argument(
        "--cache-limits",
        nargs="+",
        default=["none", "384", "192"],
        metavar="BYTES",
        help="cache limits to sweep; 'none' = uncapped "
        "(default: none 384 192)",
    )
    sweep.add_argument(
        "--compare-execute",
        action="store_true",
        help="fully execute every cell too: require bit-identical totals "
        "and report the measured speedup",
    )
    add_campaign_flags(
        sweep,
        jobs_help="shard the grid cells across N worker processes via the "
        "sweep engine (benchmark programs only)",
        build_cache=False,
    )
    _common(sweep)

    listing = commands.add_parser("list", help="show the trace store index")
    listing.add_argument(
        "--json",
        action="store_true",
        help="print one sorted-key JSON object instead of text",
    )
    _common(listing)
    return parser


def _parse_limit(text, parser):
    if text.lower() in ("none", "-"):
        return None
    try:
        return int(text, 0)
    except ValueError:
        parser.error(f"--cache-limits expects integers or 'none', got {text!r}")


def _capture_into_store(store, spec, benchmark, out):
    started = time.perf_counter()
    document, _, _ = capture(spec, benchmark)
    seconds = time.perf_counter() - started
    path = store.save(document)
    print(
        f"captured {spec.label}: {document.events} events, "
        f"{document.instructions} instructions in {seconds:.2f}s",
        file=out,
    )
    print(f"trace        : {path}", file=out)
    return 0


def _print_outcome(outcome, out, stats=False):
    from repro.cli import _print_report

    _print_report(outcome.result, out)
    if stats and outcome.stats is not None:
        print(f"cache stats  : {outcome.stats}", file=out)
    print(
        f"replay       : {outcome.events} events in {outcome.seconds:.3f}s "
        f"({outcome.events_per_s:,.0f} events/s)",
        file=out,
    )


def _cell_label(policy, limit):
    limit_text = "uncapped" if limit is None else str(limit)
    return f"{policy or '-'}/{limit_text}"


def _pooled_sweep(args, benchmark, limits, out):
    """The ``--jobs N`` sweep path: one sweep-engine unit per cell.

    The trace is already in the store (the caller captured it), so
    every worker loads rather than re-captures. Cells print in grid
    order regardless of completion order.
    """
    from repro.sweep import CampaignStore, replay_campaign, run_campaign
    from repro.sweep.config import unit_key

    config = replay_campaign(
        benchmark,
        policies=args.policies,
        cache_limits=limits,
        plan=args.plan,
        frequency_mhz=args.mhz,
        scale=args.scale,
        compare_execute=args.compare_execute,
        trace_store=args.store,
    )
    outcome = run_campaign(config, jobs=args.jobs, trace=args.trace)
    if not outcome.complete:
        print(
            f"sweep incomplete ({outcome.pending} units pending); resume "
            f"with: python -m repro sweep resume {outcome.directory}",
            file=out,
        )
        return 2
    store = CampaignStore(outcome.directory)
    rows = []
    mismatches = 0
    for policy in args.policies:
        for limit in limits:
            spec = dict(config.params)
            spec.update({"kind": "replay", "policy": policy, "cache_limit": limit})
            record = store.read_unit(unit_key(spec))
            if record["status"] != "ok":
                print(
                    f"{_cell_label(policy, limit)}: "
                    f"{record['result'].get('error')}",
                    file=out,
                )
                return 2
            payload = record["result"]
            for problem in payload.get("mismatches", ()):
                print(f"MISMATCH {_cell_label(policy, limit)} {problem}", file=out)
            if payload.get("bit_identical") is False:
                mismatches += len(payload.get("mismatches", ()))
            rows.append((policy, limit, payload))

    print(
        f"{'config':<18}{'cycles':>12}{'stalls':>10}{'misses':>8}"
        f"{'evicts':>8}{'energy uJ':>11}",
        file=out,
    )
    for policy, limit, payload in rows:
        result, stats = payload["result"], payload["stats"]
        print(
            f"{_cell_label(policy, limit):<18}"
            f"{result['total_cycles']:>12}"
            f"{result['stall_cycles']:>10}"
            f"{stats['misses']:>8}{stats['evictions']:>8}"
            f"{result['energy_nj'] / 1000:>11.2f}",
            file=out,
        )
    pool = outcome.pool
    summary = (
        f"swept {len(rows)} configs in {pool.wall_s:.2f}s "
        f"across {args.jobs} workers"
    )
    if args.compare_execute:
        if mismatches:
            print(summary, file=out)
            print(f"FAILED: {mismatches} mismatched totals", file=out)
            return 1
        summary += "; all cells bit-identical with full execution"
    print(summary, file=out)
    return 0


def main(argv=None, out=sys.stdout):
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        store = TraceStore(args.store)
        entries = store.entries()
        if args.json:
            document = {
                "root": str(store.root),
                "count": len(entries),
                "traces": {name: meta for name, meta in entries},
            }
            print(json.dumps(document, sort_keys=True, indent=2), file=out)
            return 0
        if not entries:
            print(f"no traces under {store.root}", file=out)
            return 0
        for name, meta in entries:
            print(
                f"{name}: {meta['system']}/{meta['plan']} scale "
                f"{meta['scale']}, {meta['events']} events",
                file=out,
            )
        return 0

    if args.command == "capture":
        spec = run_spec(parser, args, program=args.program)
        benchmark = args.program if args.program in BENCHMARK_NAMES else None
        try:
            return _capture_into_store(TraceStore(args.store), spec, benchmark, out)
        except CaptureError as error:
            print(f"capture failed: {error}", file=out)
            return 2
        except ReplayRefused as error:
            print(f"capture refused: {error}", file=out)
            return 2

    if args.command == "run":
        try:
            engine = ReplayEngine.from_file(args.trace)
        except (OSError, TraceError) as error:
            print(f"error: {error}", file=out)
            return 2
        policy = args.policy if args.policy is not None else AS_CAPTURED
        limit = args.cache_limit if args.cache_limit is not None else AS_CAPTURED
        try:
            outcome = engine.replay(
                policy=policy, cache_limit=limit, frequency_mhz=args.mhz
            )
        except ReplayRefused as error:
            print(f"replay refused: {error}", file=out)
            return 2
        except ReplayError as error:
            print(f"replay failed: {error}", file=out)
            return 2
        _print_outcome(outcome, out, stats=args.stats)
        if args.compare_execute:
            from repro.datacache.cache import DataCacheConfig

            header = engine.header
            datacache = outcome.config["datacache"]
            target, result = execute_reference(
                header["source"],
                system=header["system"],
                plan_name=header["plan"],
                frequency_mhz=outcome.config["frequency_mhz"],
                policy=outcome.config.get("policy"),
                cache_limit=outcome.config.get("cache_limit"),
                slot_bytes=(header.get("capture_config") or {}).get("slot_bytes"),
                datacache=datacache and DataCacheConfig.from_dict(datacache),
            )
            problems = diff_outcome(target, result, outcome)
            if problems:
                for problem in problems:
                    print(f"MISMATCH {problem}", file=out)
                return 1
            print("compare      : bit-identical with full execution", file=out)
        return 0

    # sweep
    spec = run_spec(parser, args, program=args.program, system="swapram")
    benchmark = args.program if args.program in BENCHMARK_NAMES else None
    limits = [_parse_limit(text, parser) for text in args.cache_limits]
    store = TraceStore(args.store)
    plan_config = asdict(spec.memory_plan)
    document = store.load("swapram", plan_config, args.scale, spec.source)
    capture_s = None
    if document is None:
        started = time.perf_counter()
        try:
            document, _, _ = capture(spec, benchmark)
        except CaptureError as error:
            print(f"capture failed: {error}", file=out)
            return 2
        capture_s = time.perf_counter() - started
        path = store.save(document)
        print(
            f"captured {spec.label}: {document.events} events in {capture_s:.2f}s "
            f"-> {path}",
            file=out,
        )
    else:
        print(f"reusing trace: {store.path_for(document.header)}", file=out)

    if args.jobs > 1:
        if benchmark is None:
            parser.error("--jobs > 1 needs a benchmark-name program")
        return _pooled_sweep(args, benchmark, limits, out)

    engine = ReplayEngine(document)
    rows = []
    replay_s = 0.0
    execute_s = 0.0
    mismatches = 0
    replay_started = time.perf_counter()
    for policy in args.policies:
        for limit in limits:
            try:
                outcome = engine.replay(
                    policy=policy, cache_limit=limit, frequency_mhz=args.mhz
                )
            except (ReplayRefused, ReplayError) as error:
                print(f"{_cell_label(policy, limit)}: {error}", file=out)
                return 2
            rows.append((policy, limit, outcome))
    replay_s = time.perf_counter() - replay_started

    if args.compare_execute:
        execute_started = time.perf_counter()
        for policy, limit, outcome in rows:
            target, result = execute_reference(
                spec.source,
                system="swapram",
                plan_name=args.plan,
                frequency_mhz=args.mhz,
                policy=policy,
                cache_limit=limit,
            )
            problems = diff_outcome(target, result, outcome)
            for problem in problems:
                print(f"MISMATCH {_cell_label(policy, limit)} {problem}", file=out)
            mismatches += len(problems)
        execute_s = time.perf_counter() - execute_started

    print(
        f"{'config':<18}{'cycles':>12}{'stalls':>10}{'misses':>8}"
        f"{'evicts':>8}{'energy uJ':>11}",
        file=out,
    )
    for policy, limit, outcome in rows:
        stats = outcome.stats
        print(
            f"{_cell_label(policy, limit):<18}"
            f"{outcome.result.total_cycles:>12}"
            f"{outcome.result.stall_cycles:>10}"
            f"{stats.misses:>8}{stats.evictions:>8}"
            f"{outcome.result.energy_nj / 1000:>11.2f}",
            file=out,
        )
    summary = f"replayed {len(rows)} configs in {replay_s:.2f}s"
    if capture_s is not None:
        summary += f" (+ {capture_s:.2f}s one-time capture)"
    if args.compare_execute:
        grid = replay_s + (capture_s or 0.0)
        summary += (
            f"; full execution took {execute_s:.2f}s "
            f"({execute_s / grid:.1f}x slower than the replay grid)"
        )
        if mismatches:
            print(summary, file=out)
            print(f"FAILED: {mismatches} mismatched totals", file=out)
            return 1
        summary += "; all cells bit-identical"
    print(summary, file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
