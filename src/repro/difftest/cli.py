"""The ``repro difftest`` subcommand: run a differential fuzzing campaign.

::

    python -m repro difftest --seed 1234 --count 50
    python -m repro difftest --seed 7 --count 1 --quick
    python -m repro difftest --seed 0 --count 200 --size small

Each seed deterministically generates one program, runs it across the
differential matrix and cross-checks every observable (see
:mod:`repro.difftest.runner`). Any divergence is shrunk to a minimal
reproducer and written to ``results/difftest/seed<N>.c`` -- a
standalone mini-C file (with the divergence report in its header
comment) that ``python -m repro`` can run directly. The exit status is
the number of diverging seeds, so the command doubles as a CI gate.
"""

import argparse
import sys
from pathlib import Path

from repro.difftest.generator import generate_program
from repro.difftest.runner import full_matrix, quick_matrix, run_differential
from repro.difftest.shrink import shrink, shrink_report
from repro.flags import add_campaign_flags, use_build_cache


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro difftest",
        description="Differential conformance fuzzing: reference vs baseline "
        "vs SwapRAM vs block cache.",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default: 0)")
    parser.add_argument(
        "--count", type=int, default=20, help="number of seeds (default: 20)"
    )
    parser.add_argument(
        "--size",
        choices=("small", "medium", "large"),
        default="medium",
        help="generated program size (default: medium)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the bounded 4-config matrix instead of the full one",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimising them",
    )
    parser.add_argument(
        "--results-dir",
        default="results/difftest",
        help="where reproducers are written (default: results/difftest)",
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        default=200,
        help="max differential runs the shrinker may spend per divergence",
    )
    add_campaign_flags(
        parser,
        jobs_help="shard the seeds across N worker processes via the sweep "
        "engine (divergent seeds are then re-run inline for shrinking)",
    )
    return parser


def write_reproducer(directory, report, program, note=""):
    """Write a standalone reproducer and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"seed{report.seed}.c"
    lines = [
        f"// difftest reproducer: seed {report.seed}",
        f"// reproduce: python -m repro difftest --seed {report.seed} --count 1",
    ]
    for divergence in report.divergences:
        lines.append(f"// divergence: {divergence}")
    if note:
        lines.append(f"// {note}")
    lines.append("")
    lines.append(program.render())
    path.write_text("\n".join(lines))
    return path


def dump_divergence_trace(directory, report, program):
    """Record an observability trace of the first diverging config's run.

    Written next to the reproducer as ``seed<N>.trace.json`` (plus the
    ``.report.json`` sidecar) so the divergence can be stepped through
    in Perfetto. Best-effort: a crash divergence still yields a trace of
    the partial run; build failures yield nothing. Returns the trace
    path or None.
    """
    from repro.machine.cpu import SimulationError
    from repro.obs import TraceSession, write_session_artifacts
    from repro.systems import run

    first = report.divergences[0]
    pool = full_matrix() + quick_matrix()
    matching = [config for config in pool if config.name == first.config]
    if not matching:
        return None  # 'reference'/generator divergences have no config
    config = matching[0]
    sessions = []

    def trace(system):
        sessions.append(TraceSession.attach(system))
        return sessions[-1]

    try:
        run(config.spec(program.render()), (trace,))
    except SimulationError:
        pass  # the partial trace is exactly what the crash needs
    except Exception:
        return None  # build failures leave nothing to trace
    if not sessions:
        return None  # the binary did not fit
    session = sessions[0]
    path = Path(directory) / f"seed{report.seed}.trace.json"
    trace_path, _report_path = write_session_artifacts(
        session,
        path,
        label=f"seed{report.seed}",
        extra_metadata={"config": config.name, "divergence": str(first)},
    )
    return trace_path


def shrink_divergence(report, program, budget=200, fault=None, configs=None):
    """Minimise *program* while it reproduces the report's first divergence."""
    first = report.divergences[0]
    # Re-running just the diverging configuration keeps each predicate
    # call cheap; the reference evaluation happens either way.
    pool = configs if configs is not None else full_matrix() + quick_matrix()
    matching = [config for config in pool if config.name == first.config]
    configs = matching[:1] or pool

    def still_fails(candidate):
        candidate_report = run_differential(candidate, configs, fault=fault)
        return any(
            d.config == first.config and d.kind == first.kind
            for d in candidate_report.divergences
        )

    return shrink(program, still_fails, max_predicate_calls=budget)


def _investigate(args, seed, program, report, out):
    """The divergence pipeline: shrink, write a reproducer, trace it."""
    note = ""
    if not args.no_shrink and report.divergences[0].kind != "generator":
        shrunk = shrink_divergence(report, program, budget=args.shrink_budget)
        note = shrink_report(program, shrunk)
        print(f"  {note}", file=out)
        program = shrunk
    path = write_reproducer(args.results_dir, report, program, note)
    print(f"  reproducer: {path}", file=out)
    trace_path = dump_divergence_trace(args.results_dir, report, program)
    if trace_path is not None:
        print(f"  trace: {trace_path}", file=out)


def _pooled_seeds(args, out):
    """The ``--jobs N`` path: one sweep-engine unit per seed.

    Divergent seeds come back as flags only; each one is then re-run
    inline so the shrink/reproducer/trace pipeline sees a live report.
    """
    from repro.sweep import CampaignStore, difftest_campaign, run_campaign
    from repro.sweep.config import unit_key

    config = difftest_campaign(
        seed=args.seed, count=args.count, size=args.size, quick=args.quick
    )
    outcome = run_campaign(config, jobs=args.jobs, trace=args.trace)
    if not outcome.complete:
        raise RuntimeError(
            f"difftest campaign incomplete ({outcome.pending} units "
            f"pending); resume with: python -m repro sweep resume "
            f"{outcome.directory}"
        )
    store = CampaignStore(outcome.directory)
    for seed in range(args.seed, args.seed + args.count):
        spec = dict(config.params)
        spec.update({"kind": "difftest", "seed": seed})
        record = store.read_unit(unit_key(spec))
        if record["status"] != "ok":
            raise RuntimeError(
                f"seed {seed} unit failed: {record['result'].get('error')}"
            )
        yield seed, record["result"]


def main(argv=None, out=sys.stdout):
    args = _parser().parse_args(argv)
    use_build_cache(args)
    configs = quick_matrix() if args.quick else full_matrix()

    failures = 0
    if args.jobs > 1:
        for seed, payload in _pooled_seeds(args, out):
            print(payload["summary"], file=out)
            for anomaly in payload["anomalies"]:
                print(f"  note: {anomaly}", file=out)
            if payload["ok"]:
                continue
            failures += 1
            program = generate_program(seed, size=args.size)
            report = run_differential(program, configs)
            _investigate(args, seed, program, report, out)
    else:
        for seed in range(args.seed, args.seed + args.count):
            program = generate_program(seed, size=args.size)
            report = run_differential(program, configs)
            print(report.summary(), file=out)
            for anomaly in report.anomalies:
                print(f"  note: {anomaly}", file=out)
            if report.ok:
                continue
            failures += 1
            _investigate(args, seed, program, report, out)

    print(
        f"difftest: {args.count} seeds, {failures} with divergences",
        file=out,
    )
    return failures


if __name__ == "__main__":
    sys.exit(main())
