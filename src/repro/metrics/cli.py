"""The ``repro bench`` subcommand: snapshot, compare, validate.

::

    python -m repro bench snapshot                    # next BENCH_<n>.json
    python -m repro bench snapshot --out results/bench/new.json
    python -m repro bench snapshot --benchmarks crc rc4 --systems swapram
    python -m repro bench compare BENCH_1.json BENCH_2.json
    python -m repro bench compare OLD NEW --default-threshold 1.0 --all
    python -m repro bench compare OLD NEW --threshold total_cycles=0.1
    python -m repro bench validate BENCH_1.json

``snapshot`` runs the quick benchmark matrix (see
:mod:`repro.metrics.snapshot`) and writes a schema-versioned snapshot;
``compare`` gates a new snapshot against a baseline and exits nonzero
on regression -- this is what CI's perf-snapshot job runs; ``validate``
schema-checks a snapshot file.
"""

import argparse
import sys

from repro.bench import BENCHMARK_NAMES, QUICK_NAMES
from repro.metrics.compare import compare_snapshots
from repro.metrics.snapshot import (
    DEFAULT_SYSTEMS,
    SNAPSHOT_SYSTEMS,
    load_snapshot,
    take_snapshot,
    validate_snapshot,
    write_snapshot,
)
from repro.flags import add_run_flags, use_build_cache


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Performance snapshots (BENCH_<n>.json) and the "
        "regression gate between them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    snapshot = commands.add_parser(
        "snapshot", help="run the benchmark matrix and write a snapshot"
    )
    snapshot.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(QUICK_NAMES),
        choices=BENCHMARK_NAMES,
        metavar="NAME",
        help=f"benchmarks to measure (default: {' '.join(QUICK_NAMES)})",
    )
    snapshot.add_argument(
        "--systems",
        nargs="+",
        default=list(DEFAULT_SYSTEMS),
        choices=SNAPSHOT_SYSTEMS,
        help=f"systems to measure (default: {' '.join(DEFAULT_SYSTEMS)}; "
        "swapram-replay measures the trace-replay engine and asserts it "
        "bit-identical to execution)",
    )
    add_run_flags(snapshot, plan="unified", mhz=24, scale=1)
    snapshot.add_argument(
        "--out",
        default=None,
        help="destination path (default: next free BENCH_<n>.json "
        "in the current directory)",
    )
    snapshot.add_argument(
        "--parallel-jobs",
        type=int,
        default=None,
        metavar="N",
        help="also time the first benchmark's ablation grid through the "
        "sweep engine serial vs N workers (the snapshot's "
        "parallel_sweep section)",
    )
    snapshot.add_argument(
        "--build-cache",
        default=None,
        metavar="DIR",
        help="persist compiled programs under DIR so warm re-runs "
        "perform zero compiles (same as REPRO_BUILD_CACHE)",
    )
    snapshot.add_argument(
        "--quiet", action="store_true", help="no per-run progress lines"
    )

    compare = commands.add_parser(
        "compare", help="gate a new snapshot against a baseline"
    )
    compare.add_argument("old", help="baseline snapshot (e.g. BENCH_1.json)")
    compare.add_argument("new", help="candidate snapshot")
    compare.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="METRIC=FRACTION",
        help="per-metric relative threshold override "
        "(e.g. total_cycles=0.1); repeatable",
    )
    compare.add_argument(
        "--default-threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="apply one threshold to every gated guest metric",
    )
    compare.add_argument(
        "--host-threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="also gate host wall-clock metrics (off by default: host "
        "times are machine-dependent)",
    )
    compare.add_argument(
        "--all", action="store_true", help="print every delta, not just "
        "regressions",
    )

    validate = commands.add_parser(
        "validate", help="schema-check a snapshot file"
    )
    validate.add_argument("path", help="snapshot file to check")
    return parser


def _parse_thresholds(pairs, parser):
    thresholds = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            thresholds[name] = float(value)
        except ValueError:
            parser.error(f"--threshold expects METRIC=FRACTION, got {pair!r}")
    return thresholds


def main(argv=None, out=sys.stdout):
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "snapshot":
        use_build_cache(args)
        progress = None
        if not args.quiet:
            progress = lambda label: print(f"measuring {label} ...", file=out)
        snapshot = take_snapshot(
            benchmarks=args.benchmarks,
            systems=args.systems,
            plan_name=args.plan,
            frequency_mhz=args.mhz,
            scale=args.scale,
            parallel_jobs=args.parallel_jobs,
            progress=progress,
        )
        problems = validate_snapshot(snapshot)
        if problems:  # defensive: take_snapshot should always be valid
            print(f"internal error: invalid snapshot: {problems}", file=out)
            return 1
        path = write_snapshot(snapshot, path=args.out)
        measured = sum(1 for run in snapshot["runs"] if not run["dnf"])
        dnf = len(snapshot["runs"]) - measured
        print(
            f"wrote {path} ({measured} runs measured"
            + (f", {dnf} DNF" if dnf else "")
            + ")",
            file=out,
        )
        return 0

    if args.command == "compare":
        try:
            old = load_snapshot(args.old)
            new = load_snapshot(args.new)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=out)
            return 2
        report = compare_snapshots(
            old,
            new,
            thresholds=_parse_thresholds(args.threshold, parser),
            default_threshold=args.default_threshold,
            host_threshold=args.host_threshold,
        )
        print(report.render(all_rows=args.all), file=out)
        return 0 if report.ok else 1

    # validate
    try:
        load_snapshot(args.path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=out)
        return 1
    print(f"{args.path}: valid snapshot", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
