"""The ``repro trace`` subcommand: one fully-observed benchmark run.

::

    python -m repro trace crc --system swapram
    python -m repro trace rc4 --system swapram --policy stack --cache-limit 384
    python -m repro trace program.c --system block --plan standard
    python -m repro trace crc --accesses 40      # tail of the access stream
    python -m repro trace export --campaign difftest-1a2b3c4d   # campaign trace

Builds the chosen system, attaches a :class:`~repro.obs.session.TraceSession`,
runs the program, prints the per-function attribution table and the
call tree, and writes a Perfetto-loadable ``trace_event`` JSON (open it
at https://ui.perfetto.dev) plus a machine-readable ``.report.json``
sidecar. The positional argument is a benchmark name from
:mod:`repro.bench.suite` or a mini-C source file path.
"""

import argparse
import sys
from pathlib import Path

from repro.bench.suite import BENCHMARK_NAMES, get_benchmark
from repro.blockcache import build_blockcache
from repro.core import ThrashGuard, build_swapram
from repro.core.policy import POLICIES
from repro.machine.tracelog import TraceLog
from repro.obs.report import (
    call_tree_text,
    occupancy_table,
    profile_table,
    write_session_artifacts,
)
from repro.obs.session import TraceSession
from repro.toolchain import FitError, PLANS, build_baseline


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Record a cycle-attributed trace of one run "
        "(Perfetto JSON + per-function profile).",
    )
    parser.add_argument(
        "benchmark",
        help=f"benchmark name ({', '.join(BENCHMARK_NAMES)}) "
        "or a mini-C source file",
    )
    parser.add_argument(
        "--system",
        choices=("baseline", "swapram", "block"),
        default="swapram",
        help="execution system (default: swapram)",
    )
    parser.add_argument(
        "--plan",
        choices=sorted(PLANS),
        default="unified",
        help="memory placement plan (default: unified)",
    )
    parser.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default="queue",
        help="SwapRAM replacement policy (default: queue)",
    )
    parser.add_argument(
        "--cache-limit", type=int, default=None, help="cap the SRAM cache (bytes)"
    )
    parser.add_argument(
        "--thrash-guard",
        action="store_true",
        help="enable the freeze-on-thrash extension (swapram only)",
    )
    parser.add_argument(
        "--mhz", type=float, default=24, help="CPU clock in MHz (default: 24)"
    )
    parser.add_argument(
        "--scale", type=int, default=1, help="benchmark input scale (default: 1)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="trace destination "
        "(default: results/traces/<name>-<system>.trace.json)",
    )
    parser.add_argument(
        "--top", type=int, default=None, help="limit the profile table to N rows"
    )
    parser.add_argument(
        "--accesses",
        type=int,
        nargs="?",
        const=32,
        default=None,
        metavar="N",
        help="also log the raw memory access stream and print its last "
        "N entries (default N: 32)",
    )
    parser.add_argument(
        "--events-limit",
        type=int,
        default=None,
        help="cap recorded timeline events (excess is counted, not kept)",
    )
    parser.add_argument(
        "--max-instructions",
        type=int,
        default=50_000_000,
        help="runaway guard (default: 5e7)",
    )
    return parser


def _resolve_source(args, parser):
    """The positional is a registry name or a mini-C file path."""
    name = args.benchmark
    if name in BENCHMARK_NAMES:
        bench = get_benchmark(name, scale=args.scale)
        return bench.name, bench.source, bench.expected
    path = Path(name)
    if path.exists():
        return path.stem, path.read_text(), None
    parser.error(
        f"{name!r} is neither a benchmark ({', '.join(BENCHMARK_NAMES)}) "
        "nor an existing file"
    )


def _build(args, source):
    """Build the requested system; returns (target, board)."""
    plan = PLANS[args.plan]
    if args.system == "baseline":
        board = build_baseline(source, plan, frequency_mhz=args.mhz)
        return board, board
    if args.system == "swapram":
        system = build_swapram(
            source,
            plan,
            frequency_mhz=args.mhz,
            policy_class=POLICIES[args.policy],
            cache_limit=args.cache_limit,
            thrash_guard=ThrashGuard() if args.thrash_guard else None,
        )
        return system, system.board
    system = build_blockcache(
        source, plan, frequency_mhz=args.mhz, cache_limit=args.cache_limit
    )
    return system, system.board


def main(argv=None, out=sys.stdout):
    arguments = sys.argv[1:] if argv is None else list(argv)
    if arguments and arguments[0] == "export":
        # `repro trace export` renders a whole campaign's orchestration
        # plane (docs/tracing.md); everything else traces one guest run.
        from repro.tracing.cli import export_main

        return export_main(arguments[1:], out=out)
    parser = _parser()
    args = parser.parse_args(arguments)
    label, source, expected = _resolve_source(args, parser)

    try:
        target, board = _build(args, source)
    except FitError as error:
        print(f"DNF: {error}", file=out)
        return 2

    session = TraceSession.attach(target, events_limit=args.events_limit)
    accesses = None
    if args.accesses is not None:
        accesses = TraceLog(board.bus, capacity=max(args.accesses, 1)).attach()
    try:
        result = target.run(max_instructions=args.max_instructions)
    finally:
        if accesses is not None:
            accesses.detach()
        session.finish()
    session.result = result

    print(profile_table(session, top=args.top), file=out)
    tree = call_tree_text(session)
    if tree:
        print(file=out)
        print("Call tree (inclusive/exclusive cycles)", file=out)
        print(tree, file=out)
    if session.occupancy():
        print(file=out)
        print(occupancy_table(session), file=out)
    if accesses is not None:
        print(file=out)
        print(f"Last {min(args.accesses, len(accesses.events))} memory "
              f"accesses (of {accesses.sequence}):", file=out)
        print(accesses.dump(limit=args.accesses), file=out)

    out_path = args.out or (
        Path("results/traces") / f"{label}-{args.system}.trace.json"
    )
    trace_path, report_path = write_session_artifacts(
        session,
        out_path,
        label=label,
        extra_metadata={
            "benchmark": label,
            "system": args.system,
            "plan": args.plan,
        },
    )
    print(file=out)
    print(f"trace  : {trace_path}", file=out)
    print(f"report : {report_path}", file=out)

    if expected is not None and result.debug_words != expected:
        print(
            f"output MISMATCH: {result.debug_words[:8]} != {expected[:8]}",
            file=out,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
