"""Command-line interface: compile and run mini-C on the simulated platform.

::

    python -m repro program.c                        # baseline, unified, 24 MHz
    python -m repro program.c --system swapram       # with the software cache
    python -m repro program.c --system blockcache    # prior-work block cache
    python -m repro program.c --plan standard --mhz 8
    python -m repro program.c --system swapram --stats --listing
    python -m repro program.c --trace results/traces/program.trace.json
    python -m repro difftest --seed 1234 --count 50   # differential fuzzing
    python -m repro trace crc --system swapram        # full observability
    python -m repro bench snapshot                    # perf telemetry snapshot
    python -m repro bench compare BENCH_1.json BENCH_2.json
    python -m repro faults sweep --seed 1             # intermittent power
    python -m repro replay capture crc                # trace-capture a run
    python -m repro replay sweep crc                  # replay an ablation grid
    python -m repro sweep run --preset difftest --jobs 4 --trace   # campaigns
    python -m repro sweep watch difftest-1a2b3c4d     # live campaign telemetry
    python -m repro trace export --campaign difftest-1a2b3c4d   # Perfetto
    python -m repro cache report crc                  # miss classification
    python -m repro cache mrc crc --validate          # exact miss-ratio curve
    python -m repro program.c --system datacache-wb   # write-back data cache
    python -m repro datacache sweep --jobs 4          # mode x cleaning grid
    python -m repro datacache report results/datacache/sweep.json

Prints the program's debug-port output and a run report (cycles,
accesses, energy); ``--stats`` adds cache-runtime statistics,
``--listing`` disassembles the final (possibly self-modified) code, and
``--trace PATH`` records a Perfetto trace of the run. The ``difftest``
subcommand runs the differential conformance fuzzer (see
:mod:`repro.difftest.cli`); the ``trace`` subcommand records and
profiles one benchmark run (see :mod:`repro.obs.cli`); the ``bench``
subcommand writes/compares ``BENCH_<n>.json`` performance snapshots
(see :mod:`repro.metrics.cli`); the ``faults`` subcommand runs
intermittent-power fault campaigns (see :mod:`repro.faults.cli`); the
``replay`` subcommand captures canonical event traces and replays
ablation grids through the cache/cost/energy models at a fraction of
the wall clock (see :mod:`repro.replay.cli`); the ``sweep`` subcommand
runs sharded, resumable configuration-matrix campaigns on a worker
pool (see :mod:`repro.sweep.cli`); the ``cache`` subcommand derives
exact miss classification, miss-ratio curves and eviction-causality
reports from captured baseline traces (see :mod:`repro.analysis.cli`);
the ``datacache`` subcommand sweeps and reports the FRAM data-plane
cache's mode x cleaning x geometry grid (see
:mod:`repro.datacache.cli`).

``--system`` takes any :mod:`repro.systems` name or alias; a knob
(``--cache-limit``, ``--thrash-guard``) the chosen system does not take
is refused with exit status 2.

``--max-cycles`` arms a cycle watchdog: a run that exceeds the budget
is reported as a first-class DNF (exit status 2) instead of spinning to
the instruction guard, mirroring how the experiments runner treats
runs that never finish.
"""

import argparse
import sys

from repro import systems
from repro.flags import add_run_flags, run_spec


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run mini-C programs on the simulated FRAM platform "
        "(SwapRAM reproduction).",
    )
    parser.add_argument("source", help="mini-C source file (or '-' for stdin)")
    add_run_flags(
        parser,
        system="baseline",
        plan="unified",
        mhz=24,
        cache_limit=None,
        thrash_guard=False,
        max_instructions=50_000_000,
        max_cycles=None,
    )
    parser.add_argument(
        "--stats", action="store_true", help="print cache-runtime statistics"
    )
    parser.add_argument(
        "--listing",
        action="store_true",
        help="disassemble the text section after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a Perfetto trace of the run to PATH "
        "(a .report.json sidecar lands next to it)",
    )
    return parser


def _print_report(result, out):
    print("debug output :", " ".join(f"{word:#06x}" for word in result.debug_words)
          or "(none)", file=out)
    if result.output_text:
        print("text output  :", result.output_text, file=out)
    print(f"instructions : {result.instructions}", file=out)
    print(
        f"cycles       : {result.total_cycles} "
        f"({result.unstalled_cycles} + {result.stall_cycles} stalls)",
        file=out,
    )
    print(
        f"accesses     : {result.fram_accesses} FRAM, "
        f"{result.sram_accesses} SRAM "
        f"(code/data ratio {result.code_data_ratio:.2f})",
        file=out,
    )
    print(f"runtime      : {result.runtime_us:.1f} us @ "
          f"{result.frequency_mhz:g} MHz", file=out)
    print(f"energy       : {result.energy_nj / 1000:.2f} uJ", file=out)


def main(argv=None, out=sys.stdout):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "difftest":
        from repro.difftest.cli import main as difftest_main

        return difftest_main(argv[1:], out=out)
    if argv and argv[0] == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:], out=out)
    if argv and argv[0] == "bench":
        from repro.metrics.cli import main as bench_main

        return bench_main(argv[1:], out=out)
    if argv and argv[0] == "faults":
        from repro.faults.cli import main as faults_main

        return faults_main(argv[1:], out=out)
    if argv and argv[0] == "replay":
        from repro.replay.cli import main as replay_main

        return replay_main(argv[1:], out=out)
    if argv and argv[0] == "sweep":
        from repro.sweep.cli import main as sweep_main

        return sweep_main(argv[1:], out=out)
    if argv and argv[0] == "cache":
        from repro.analysis.cli import main as cache_main

        return cache_main(argv[1:], out=out)
    if argv and argv[0] == "datacache":
        from repro.datacache.cli import main as datacache_main

        return datacache_main(argv[1:], out=out)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.source == "-":
        source = sys.stdin.read()
    else:
        with open(args.source) as handle:
            source = handle.read()
    spec = run_spec(parser, args, source=source, label=args.source)

    attach = ()
    if args.trace:
        from repro.obs import TraceSession

        attach = (TraceSession.attach,)
    outcome = systems.run(spec, attach)
    if outcome.dnf:
        print(f"DNF: {outcome.error}", file=out)
        return 2
    system, result = outcome.system, outcome.result
    _print_report(result, out)
    if args.trace:
        from repro.obs import write_session_artifacts

        trace_path, report_path = write_session_artifacts(
            outcome.sessions[0], args.trace, label=args.source
        )
        print(f"trace        : {trace_path} (+ {report_path.name})", file=out)

    if args.stats and system.stats is not None:
        print(f"cache stats  : {system.stats}", file=out)
    if args.listing:
        from repro.asm.disasm import listing

        image = system.linked.image
        base, size = image.section_extents["text"]
        print(file=out)
        print(
            listing(system.board.memory.read_word, base, base + size, image.symbols),
            file=out,
        )
    for problem in outcome.problems:
        print(f"problem      : {problem}", file=out)
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
