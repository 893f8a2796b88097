"""The ``repro cache`` subcommand: cache-behavior analytics.

::

    python -m repro cache report crc
    python -m repro cache report crc --sets 2 --ways 2 --json
    python -m repro cache mrc crc --validate
    python -m repro cache mrc results/traces/crc-baseline-*.trace --json
    python -m repro cache thrash crc --top 10

``report`` explains one target geometry end to end: exact compulsory /
capacity / conflict miss classification, eviction causality, thrash
pairs, working-set-over-time, and the miss-ratio curve; ``mrc`` emits
just the exact LRU miss-ratio curve (``--validate`` replays three
curve points and asserts bit-exact agreement); ``thrash`` ranks the
function pairs that evict each other. The positional argument is a
benchmark name (a baseline trace is captured into the store on first
use and reused after) or a trace file path. All outputs are
deterministic: the same trace always produces byte-identical JSON.
See ``docs/analysis.md``.
"""

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from repro.analysis.report import (
    mrc_document,
    render_mrc_text,
    render_report_text,
    render_thrash_text,
    report_document,
    thrash_document,
    to_json,
    validate_mrc,
    write_perfetto,
)
from repro.analysis.stream import AnalysisError, build_stream
from repro.bench import BENCHMARK_NAMES, get_benchmark
from repro.flags import add_run_flags
from repro.replay.capture import CaptureError, capture_source
from repro.replay.engine import ReplayEngine
from repro.replay.schema import TraceDocument, TraceError
from repro.replay.store import DEFAULT_ROOT, TraceStore
from repro.replay.validity import ReplayRefused
from repro.toolchain import PLANS


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Explain cache behavior from captured replay traces: "
        "miss classification, miss-ratio curves, eviction causality.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _common(sub, sets_default, ways=True):
        sub.add_argument(
            "program",
            help="benchmark name (crc, rc4, ...) or a baseline trace file",
        )
        sub.add_argument(
            "--store",
            default=str(DEFAULT_ROOT),
            metavar="DIR",
            help=f"trace store directory (default: {DEFAULT_ROOT})",
        )
        add_run_flags(sub, plan="unified", scale=1, mhz=24)
        sub.add_argument(
            "--line-bytes",
            type=int,
            default=8,
            help="FRAM cache line size in bytes (default: 8)",
        )
        sub.add_argument(
            "--sets",
            type=int,
            default=sets_default,
            help=f"cache sets (default: {sets_default})",
        )
        if ways:
            sub.add_argument(
                "--ways",
                type=int,
                default=2,
                help="cache ways per set (default: 2, the FR2355)",
            )
        sub.add_argument(
            "--json",
            action="store_true",
            help="print the sorted-key JSON document instead of text",
        )
        sub.add_argument(
            "--out",
            metavar="FILE",
            default=None,
            help="also write the JSON document to FILE",
        )

    report = commands.add_parser(
        "report", help="full cache-behavior report at one geometry"
    )
    _common(report, sets_default=2)
    report.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="CYCLES",
        help="working-set window in unstalled cycles "
        "(default: ~64 windows)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        help="thrash pairs to include (default: 10)",
    )
    report.add_argument(
        "--perfetto",
        metavar="FILE",
        default=None,
        help="write Perfetto counter tracks (occupancy, working set, "
        "cumulative misses by class) to FILE",
    )

    mrc = commands.add_parser(
        "mrc", help="exact LRU miss-ratio curve for all cache sizes"
    )
    _common(mrc, sets_default=1, ways=False)
    mrc.add_argument(
        "--ways",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="emit these way counts instead of the curve's change points",
    )
    mrc.add_argument(
        "--validate",
        action="store_true",
        help="replay three curve points and assert bit-exact agreement",
    )

    thrash = commands.add_parser(
        "thrash", help="rank function pairs that evict each other"
    )
    _common(thrash, sets_default=2)
    thrash.add_argument(
        "--top",
        type=int,
        default=20,
        help="pairs to include (default: 20)",
    )
    return parser


def _resolve_document(args, out):
    """Load the trace: a file path, or a store-cached benchmark capture."""
    path = Path(args.program)
    if path.is_file():
        return TraceDocument.load(path)
    if args.program not in BENCHMARK_NAMES:
        raise AnalysisError(
            f"{args.program!r} is neither a trace file nor a benchmark "
            f"name ({', '.join(BENCHMARK_NAMES)})"
        )
    bench = get_benchmark(args.program, args.scale)
    store = TraceStore(args.store)
    plan_config = asdict(PLANS[args.plan])
    document = store.load("baseline", plan_config, args.scale, bench.source)
    if document is not None:
        return document
    document, _, _ = capture_source(
        bench.source,
        system="baseline",
        plan_name=args.plan,
        frequency_mhz=args.mhz,
        scale=args.scale,
        benchmark=args.program,
    )
    path = store.save(document)
    print(f"captured baseline trace: {path}", file=out)
    return document


def _validation_ways(document):
    """Three spread-out curve points to replay for ``--validate``."""
    points = document["points"]
    ways = sorted({p["ways"] for p in points})
    if len(ways) <= 3:
        picked = ways
    else:
        picked = [ways[0], ways[len(ways) // 2], ways[-1]]
    # Always include a size past the last change point: the curve must
    # sit on the compulsory floor there.
    picked.append(ways[-1] + 1 if ways else 1)
    return sorted(set(picked))


def _emit(document, args, render, out):
    text = to_json(document)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=out)
    if args.json:
        print(text, file=out)
    else:
        render(document, out)


def main(argv=None, out=sys.stdout):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        trace = _resolve_document(args, out)
        stream = build_stream(trace, line_bytes=args.line_bytes)
    except (AnalysisError, TraceError, ReplayRefused, CaptureError) as error:
        print(f"error: {error}", file=out)
        return 2

    if args.command == "report":
        document = report_document(
            stream,
            sets=args.sets,
            ways=args.ways,
            window_cycles=args.window,
            top=args.top,
        )
        if args.perfetto:
            path = write_perfetto(args.perfetto, document)
            print(f"wrote {path}", file=out)
        _emit(document, args, render_report_text, out)
        return 0

    if args.command == "mrc":
        document = mrc_document(stream, sets=args.sets, way_counts=args.ways)
        if args.validate:
            engine = ReplayEngine(trace)
            try:
                document["validation"] = validate_mrc(
                    document, engine, _validation_ways(document)
                )
            except AssertionError as error:
                print(f"VALIDATION FAILED: {error}", file=out)
                return 1
        _emit(document, args, render_mrc_text, out)
        return 0

    # thrash
    document = thrash_document(
        stream, sets=args.sets, ways=args.ways, top=args.top
    )
    _emit(document, args, render_thrash_text, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
