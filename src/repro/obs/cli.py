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
:mod:`repro.bench.suite` or a mini-C source file path; ``--system`` is
any :mod:`repro.systems` name, and a knob it does not take (``--policy``
on anything but swapram, say) exits 2.
"""

import argparse
import sys
from functools import partial
from pathlib import Path

from repro import systems
from repro.bench.suite import BENCHMARK_NAMES
from repro.flags import add_run_flags, run_spec
from repro.machine.tracelog import TraceLog
from repro.obs.report import (
    call_tree_text,
    occupancy_table,
    profile_table,
    write_session_artifacts,
)
from repro.obs.session import TraceSession


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
    add_run_flags(
        parser,
        system="swapram",
        plan="unified",
        policy=None,
        cache_limit=None,
        thrash_guard=False,
        mhz=24,
        scale=1,
        max_instructions=50_000_000,
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
    return parser


def main(argv=None, out=sys.stdout):
    arguments = sys.argv[1:] if argv is None else list(argv)
    if arguments and arguments[0] == "export":
        # `repro trace export` renders a whole campaign's orchestration
        # plane (docs/tracing.md); everything else traces one guest run.
        from repro.tracing.cli import export_main

        return export_main(arguments[1:], out=out)
    parser = _parser()
    args = parser.parse_args(arguments)
    spec = run_spec(parser, args, program=args.benchmark)

    attach = [partial(TraceSession.attach, events_limit=args.events_limit)]
    if args.accesses is not None:
        capacity = max(args.accesses, 1)
        attach.append(lambda system: TraceLog(system.board.bus, capacity).attach())
    outcome = systems.run(spec, attach)
    if outcome.dnf:
        print(f"DNF: {outcome.error}", file=out)
        return 2
    session = outcome.sessions[0]
    accesses = outcome.sessions[1] if args.accesses is not None else None

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
        Path("results/traces") / f"{spec.label}-{args.system}.trace.json"
    )
    trace_path, report_path = write_session_artifacts(
        session,
        out_path,
        label=spec.label,
        extra_metadata={
            "benchmark": spec.label,
            "system": args.system,
            "plan": args.plan,
        },
    )
    print(file=out)
    print(f"trace  : {trace_path}", file=out)
    print(f"report : {report_path}", file=out)

    for problem in outcome.problems:
        print(f"MISMATCH: {problem}", file=out)
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
