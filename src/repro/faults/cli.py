"""The ``repro faults`` subcommand: intermittent-power campaigns.

::

    python -m repro faults sweep --seed 1
    python -m repro faults sweep --seed 1 --benchmarks crc rsa \\
        --systems baseline swapram blockcache --schedules fixed:0.5 \\
        periodic:0.35 adversarial:memcpy
    python -m repro faults sweep --seed 1 --difftest-seeds 3 7
    python -m repro faults replay --benchmark crc --system swapram \\
        --schedule adversarial:memcpy --seed 1

``sweep`` runs the full targets x schedules matrix and writes one JSON
report to ``results/faults/sweep-seed<N>.json``. Every stochastic
choice descends from ``--seed`` and the report contains no timestamps,
so two invocations with the same arguments produce byte-identical
files -- CI diffs them to enforce it. Classifications other than
``correct`` are *findings*, not failures -- a non-idempotent program is
wrong-result after a reboot even on the baseline system -- so a
completed sweep always exits 0 and CI asserts on the JSON report.

``replay`` re-runs a single case and prints the boot-by-boot story:
where each fuse blew, what the post-reboot audit found, and the final
classification.
"""

import argparse
import json
import sys
from pathlib import Path

from repro import systems
from repro.faults.harness import (
    MAX_INSTRUCTIONS_PER_BOOT,
    MAX_REBOOTS,
    FaultSweep,
    benchmark_target,
    difftest_target,
    run_case,
)
from repro.faults.schedule import ScheduleError, parse_schedule
from repro.flags import add_campaign_flags, add_run_flags, use_build_cache
from repro.metrics.registry import MetricsRegistry

DEFAULT_BENCHMARKS = ("crc", "rsa")
DEFAULT_SYSTEMS = ("baseline", "swapram")
DEFAULT_SCHEDULES = ("fixed:0.5", "periodic:0.35", "adversarial:memcpy")


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Intermittent-power fault injection and "
        "crash-consistency checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a targets x schedules campaign")
    replay = sub.add_parser("replay", help="re-run one case, boot by boot")
    for cmd in (sweep, replay):
        cmd.add_argument(
            "--seed", type=int, default=1, help="campaign seed (default: 1)"
        )
        cmd.add_argument(
            "--max-reboots",
            type=int,
            default=MAX_REBOOTS,
            help=f"reboot watchdog per case (default: {MAX_REBOOTS})",
        )
        cmd.add_argument(
            "--recovery",
            choices=("none", "meta"),
            default="none",
            help="reboot recovery model (default: none, the paper's system)",
        )
        add_run_flags(cmd, max_instructions=MAX_INSTRUCTIONS_PER_BOOT, scale=1)

    sweep.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(DEFAULT_BENCHMARKS),
        help=f"benchmark targets (default: {' '.join(DEFAULT_BENCHMARKS)})",
    )
    sweep.add_argument(
        "--difftest-seeds",
        nargs="*",
        type=int,
        default=[],
        help="difftest-generated programs to add as targets",
    )
    sweep.add_argument(
        "--systems",
        nargs="*",
        choices=systems.NAMES,
        default=list(DEFAULT_SYSTEMS),
        help=f"systems under test (default: {' '.join(DEFAULT_SYSTEMS)})",
    )
    sweep.add_argument(
        "--schedules",
        nargs="*",
        default=list(DEFAULT_SCHEDULES),
        help=f"fault schedules (default: {' '.join(DEFAULT_SCHEDULES)})",
    )
    sweep.add_argument(
        "--out",
        default="results/faults",
        help="report directory (default: results/faults)",
    )
    add_campaign_flags(
        sweep,
        jobs_help="shard the matrix across N worker processes via the sweep "
        "engine (the report stays byte-identical to --jobs 1)",
    )

    replay.add_argument("--benchmark", help="benchmark name to replay")
    replay.add_argument(
        "--difftest-seed", type=int, help="difftest program seed to replay"
    )
    add_run_flags(replay, system="swapram")
    replay.add_argument(
        "--schedule", default="adversarial:memcpy", help="fault schedule spec"
    )
    replay.add_argument("--json", help="also write the case report to this path")
    return parser


def _check_schedules(specs):
    for spec in specs:
        parse_schedule(spec)  # raises ScheduleError on malformed specs


def _sweep_targets(args):
    targets = []
    for benchmark in args.benchmarks:
        for system in args.systems:
            targets.append(benchmark_target(benchmark, system, scale=args.scale))
    for seed in args.difftest_seeds:
        for system in args.systems:
            targets.append(difftest_target(seed, system))
    return targets


def _serial_cases(args):
    """The case dicts and summed metrics, via the serial FaultSweep."""
    metrics = MetricsRegistry()
    sweep = FaultSweep(
        seed=args.seed,
        max_reboots=args.max_reboots,
        max_instructions=args.max_instructions,
        recovery=args.recovery,
        metrics=metrics,
    )
    reports = sweep.run(_sweep_targets(args), args.schedules)
    return [report.as_dict() for report in reports], metrics.as_dict()


def _parallel_cases(args, out):
    """The same case dicts via the sweep engine's worker pool.

    Units land in the sweep store under their content-addressed keys;
    this reassembles them in the serial iteration order (targets outer,
    schedules inner) and sums the per-case counters, so the final
    report is byte-identical to the ``--jobs 1`` document.
    """
    from repro.sweep import CampaignStore, fault_campaign, run_campaign, unit_key

    config = fault_campaign(
        benchmarks=args.benchmarks,
        systems=args.systems,
        schedules=args.schedules,
        difftest_seeds=args.difftest_seeds,
        seed=args.seed,
        recovery=args.recovery,
        scale=args.scale,
        max_reboots=args.max_reboots,
        max_instructions=args.max_instructions,
    )
    outcome = run_campaign(
        config,
        jobs=args.jobs,
        progress=lambda line: print(line, file=out),
        trace=args.trace,
    )
    if not outcome.complete:
        raise RuntimeError(
            f"fault campaign incomplete ({outcome.pending} units pending); "
            f"resume with: python -m repro sweep resume {outcome.directory}"
        )
    store = CampaignStore(outcome.directory)
    labels = [f"bench:{name}" for name in args.benchmarks]
    labels += [f"difftest:{seed}" for seed in args.difftest_seeds]
    cases, totals = [], {}
    for label in labels:
        for system in args.systems:
            for schedule in args.schedules:
                spec = dict(config.params)
                spec.update(
                    {
                        "kind": "fault",
                        "target": label,
                        "system": system,
                        "schedule": schedule,
                    }
                )
                record = store.read_unit(unit_key(spec))
                if record["status"] != "ok":
                    raise RuntimeError(
                        f"unit {unit_key(spec)} ({label} {system} {schedule}) "
                        f"failed: {record['result'].get('error')}"
                    )
                payload = record["result"]
                cases.append(payload["case"])
                for name, metric in payload["metrics"].items():
                    totals[name] = _merge_metric(totals.get(name), metric)
    return cases, {name: totals[name] for name in sorted(totals)}


def _merge_metric(total, metric):
    """Fold one case's metric into the campaign total.

    Reproduces what one shared registry would have accumulated across
    the serial sweep: counters and histogram moments sum, gauges keep
    the last write (cases are folded in serial order), means are
    re-derived from the merged moments.
    """
    if total is None:
        return dict(metric)
    kind = metric["type"]
    if kind == "counter":
        total["value"] += metric["value"]
    elif kind == "gauge":
        total["value"] = metric["value"]
    elif kind == "histogram":
        total["count"] += metric["count"]
        total["sum"] += metric["sum"]
        for bound, pick in (("min", min), ("max", max)):
            if metric[bound] is not None:
                total[bound] = (
                    metric[bound]
                    if total[bound] is None
                    else pick(total[bound], metric[bound])
                )
        total["mean"] = total["sum"] / total["count"] if total["count"] else 0.0
    else:
        raise RuntimeError(f"cannot merge metric type {kind!r}")
    return total


def run_sweep(args, out):
    _check_schedules(args.schedules)
    use_build_cache(args)
    if args.jobs > 1:
        cases, metrics = _parallel_cases(args, out)
    else:
        cases, metrics = _serial_cases(args)
    summary = {"correct": 0, "wrong-result": 0, "crash": 0, "livelock": 0}
    for case in cases:
        summary[case["classification"]] = summary.get(case["classification"], 0) + 1

    document = {
        "seed": args.seed,
        "recovery": args.recovery,
        "schedules": list(args.schedules),
        "summary": summary,
        "metrics": metrics,
        "cases": cases,
    }
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"sweep-seed{args.seed}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    names = [f"{c['label']}/{c['system']}/{c['plan']}" for c in cases]
    width = max(len(name) for name in names) if names else 10
    for name, case in zip(names, cases):
        window = case.get("resolved_window")
        print(
            f"{name:<{width}}  {case['schedule']:<20} "
            f"{case['classification']:<12} reboots={case['power_cycles']}"
            + (f" [{window}]" if window else ""),
            file=out,
        )
    print(
        "summary: "
        + "  ".join(f"{kind}={count}" for kind, count in sorted(summary.items())),
        file=out,
    )
    print(f"report : {path}", file=out)
    return 0


def run_replay(args, out):
    if (args.benchmark is None) == (args.difftest_seed is None):
        print("replay needs exactly one of --benchmark/--difftest-seed", file=out)
        return 2
    _check_schedules([args.schedule])
    if args.benchmark is not None:
        target = benchmark_target(args.benchmark, args.system, scale=args.scale)
    else:
        target = difftest_target(args.difftest_seed, args.system)

    report = run_case(
        target,
        args.schedule,
        args.seed,
        max_reboots=args.max_reboots,
        max_instructions=args.max_instructions,
        recovery=args.recovery,
    )

    print(f"case   : {target.name}  {args.schedule}  seed={args.seed}", file=out)
    print(
        f"golden : {report.golden.total_cycles} cycles, "
        f"{report.golden.energy_nj / 1000:.2f} uJ",
        file=out,
    )
    if report.resolved_window:
        print(f"window : {report.resolved_window}", file=out)
    for boot in report.boots:
        line = (
            f"boot {boot.index:>2} : cycles {boot.start_cycle}..{boot.end_cycle}"
            f"  {boot.outcome}"
        )
        if boot.fuse:
            line += f"  fuse={boot.fuse}"
        if boot.interrupted_in:
            line += f"  in={boot.interrupted_in}"
        print(line, file=out)
        for finding in boot.post_reboot_findings:
            print(f"         audit: {finding}", file=out)
    print(f"result : {report.classification}", file=out)
    if report.detail:
        print(f"detail : {report.detail}", file=out)
    for finding in report.consistency:
        print(f"final audit: {finding}", file=out)

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report : {path}", file=out)
    return 0 if report.classification else 1


def main(argv=None, out=sys.stdout):
    args = _parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return run_sweep(args, out)
        return run_replay(args, out)
    except ScheduleError as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
