"""The ``repro sweep`` subcommand: run, status, resume, merge, watch, report.

::

    python -m repro sweep run --preset difftest --seed 0 --count 50 --jobs 4
    python -m repro sweep run --preset faults --benchmarks crc --jobs 2
    python -m repro sweep run --preset replay --benchmark crc --compare-execute
    python -m repro sweep run --config campaign.json --jobs 8 --trace
    python -m repro sweep run --preset difftest --count 9 --max-units 3
    python -m repro sweep status results/sweeps/difftest-1a2b3c4d --json
    python -m repro sweep resume results/sweeps/difftest-1a2b3c4d --jobs 4
    python -m repro sweep merge results/sweeps/difftest-1a2b3c4d
    python -m repro sweep watch results/sweeps/difftest-1a2b3c4d
    python -m repro sweep report results/sweeps/difftest-1a2b3c4d

``run`` expands a campaign (a ``--preset`` or a JSON ``--config``) into
content-addressed units under ``results/sweeps/<campaign-id>/`` and
executes the ones without stored results; interrupting it -- Ctrl-C,
SIGKILL, ``--max-units`` -- loses nothing, and ``resume`` (or simply
``run`` again) completes the remainder. ``merge`` writes the
bit-reproducible ``merged.json``; ``status`` reports done/pending
counts (``--json`` for one sorted-key machine-readable object);
``watch`` live-renders progress, throughput and ETA; ``report`` flags
straggler units and breaks down worker idle time (see
docs/tracing.md). Exit status: 0 = complete and clean, 1 = complete
with failed/timeout units, 3 = units still pending.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.flags import add_run_flags
from repro.sweep.campaigns import PRESETS
from repro.sweep.config import CampaignConfig, ConfigError
from repro.sweep.engine import run_campaign
from repro.sweep.store import DEFAULT_ROOT, CampaignStore, StoreError

EXIT_OK = 0
EXIT_UNCLEAN = 1
EXIT_USAGE = 2
EXIT_PENDING = 3


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Sharded, resumable configuration-matrix campaigns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run (or resume) a campaign")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="campaign config JSON")
    source.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="a built-in campaign shape (see docs/sweep.md)",
    )
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help="stop after N units (deterministic interruption)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit timeout; exceeding it is a 'timeout' unit "
        "(needs --jobs >= 2)",
    )
    run.add_argument(
        "--root",
        default=str(DEFAULT_ROOT),
        help=f"sweep store root (default: {DEFAULT_ROOT})",
    )
    run.add_argument(
        "--id",
        default=None,
        metavar="NAME",
        help="campaign directory name (default: derived from the config)",
    )
    run.add_argument(
        "--no-merge",
        action="store_true",
        help="skip writing merged.json even when complete",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record orchestration-plane spans under <campaign>/events/ "
        "(see docs/tracing.md; merged.json bytes are unaffected)",
    )
    run.add_argument("--quiet", action="store_true", help="no per-unit lines")

    # Preset knobs; each preset reads the subset it understands.
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--count", type=int, default=None)
    run.add_argument("--size", choices=("small", "medium", "large"), default=None)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--benchmark", default=None)
    run.add_argument("--benchmarks", nargs="+", default=None, metavar="NAME")
    run.add_argument("--systems", nargs="+", default=None, metavar="SYSTEM")
    run.add_argument("--schedules", nargs="+", default=None, metavar="SPEC")
    run.add_argument(
        "--difftest-seeds", nargs="+", type=int, default=None, metavar="SEED"
    )
    run.add_argument("--recovery", choices=("none", "meta"), default=None)
    add_run_flags(run, scale=None)
    run.add_argument("--policies", nargs="+", default=None, metavar="POLICY")
    run.add_argument(
        "--cache-limits",
        nargs="+",
        default=None,
        metavar="BYTES",
        help="'none' = uncapped",
    )
    run.add_argument(
        "--cache-sizes", nargs="+", type=int, default=None, metavar="BYTES"
    )
    run.add_argument("--frequencies", nargs="+", type=float, default=None)
    run.add_argument("--plans", nargs="+", default=None, metavar="PLAN")
    run.add_argument("--compare-execute", action="store_true")
    run.add_argument("--engine", choices=("execute", "replay"), default=None)
    run.add_argument("--trace-store", default=None, metavar="DIR")
    run.add_argument("--modes", nargs="+", default=None, metavar="MODE")
    run.add_argument("--cleanings", nargs="+", default=None, metavar="SPEC")
    run.add_argument("--geometries", nargs="+", default=None, metavar="SxWxL")

    for name, text in (
        ("status", "report done/pending counts for a campaign"),
        ("resume", "finish an interrupted campaign"),
        ("merge", "write merged.json from the unit files"),
        ("watch", "live-refreshing campaign status (throughput, ETA)"),
        ("report", "straggler detection and worker-utilization report"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("campaign", help="campaign directory (or id under --root)")
        sub.add_argument("--root", default=str(DEFAULT_ROOT))
        if name == "status":
            sub.add_argument(
                "--json",
                action="store_true",
                help="machine-readable output (one sorted-key JSON object)",
            )
        if name == "resume":
            sub.add_argument("--jobs", type=int, default=1)
            sub.add_argument("--timeout", type=float, default=None)
            sub.add_argument("--trace", action="store_true")
            sub.add_argument("--quiet", action="store_true")
        if name == "merge":
            sub.add_argument(
                "--partial",
                action="store_true",
                help="merge whatever is done; mark the document incomplete",
            )
        if name == "watch":
            sub.add_argument(
                "--interval",
                type=float,
                default=2.0,
                metavar="SECONDS",
                help="refresh period (default: 2)",
            )
            sub.add_argument(
                "--once",
                action="store_true",
                help="print one snapshot and exit (scripts, tests)",
            )
        if name == "report":
            sub.add_argument(
                "--straggler-factor",
                type=float,
                default=3.0,
                metavar="K",
                help="flag units slower than K x median (default: 3)",
            )
    return parser


_PRESET_KEYS = {
    "difftest": ("seed", "count", "size", "quick"),
    "faults": (
        "benchmarks",
        "systems",
        "schedules",
        "difftest_seeds",
        "seed",
        "recovery",
        "scale",
    ),
    "replay": (
        "benchmark",
        "policies",
        "cache_limits",
        "frequency_mhz",
        "scale",
        "compare_execute",
        "trace_store",
    ),
    "matrix": ("benchmarks", "systems", "frequencies", "plans", "scale", "engine"),
    "cache-size": ("benchmark", "cache_sizes", "engine"),
    "datacache": ("benchmarks", "modes", "cleanings", "geometries", "scale"),
}


def _parse_cache_limits(values, parser):
    limits = []
    for text in values:
        if text.lower() in ("none", "-"):
            limits.append(None)
            continue
        try:
            limits.append(int(text, 0))
        except ValueError:
            parser.error(f"--cache-limits expects integers or 'none', got {text!r}")
    return limits


def _preset_config(args, parser):
    kwargs = {}
    for key in _PRESET_KEYS[args.preset]:
        flag = {
            "cache_limits": "cache_limits",
            "cache_sizes": "cache_sizes",
            "frequency_mhz": "frequencies",
        }.get(key, key)
        value = getattr(args, flag, None)
        if value in (None, False):
            continue
        if key == "cache_limits":
            value = _parse_cache_limits(value, parser)
        if key == "frequency_mhz":
            if len(value) != 1:
                parser.error("the replay preset takes exactly one --frequencies")
            value = value[0]
        kwargs[key] = value
    if args.preset == "replay" and "benchmark" not in kwargs:
        parser.error("--preset replay needs --benchmark")
    if args.preset == "cache-size":
        if "benchmark" not in kwargs or "cache_sizes" not in kwargs:
            parser.error("--preset cache-size needs --benchmark and --cache-sizes")
    if args.preset == "matrix" and "benchmarks" not in kwargs:
        parser.error("--preset matrix needs --benchmarks")
    return PRESETS[args.preset](**kwargs)


def _load_config(args, parser):
    if args.preset is not None:
        return _preset_config(args, parser)
    try:
        document = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as error:
        parser.error(f"--config: {error}")
    return CampaignConfig.from_dict(document)


def _resolve(args):
    path = Path(args.campaign)
    if path.is_dir():
        return CampaignStore(path)
    return CampaignStore(Path(args.root) / args.campaign)


def _print_outcome(outcome, out):
    print(f"campaign : {outcome.campaign}", file=out)
    print(f"store    : {outcome.directory}", file=out)
    run_text = f"{outcome.executed} run"
    extras = []
    if outcome.failed:
        extras.append(f"{outcome.failed} failed")
    if outcome.timeouts:
        extras.append(f"{outcome.timeouts} timeout")
    if outcome.lost:
        extras.append(f"{len(outcome.lost)} lost to dead workers")
    if extras:
        run_text += f" ({', '.join(extras)})"
    print(
        f"units    : {outcome.total} total, {outcome.cached} cached, "
        f"{run_text}, {outcome.pending} pending",
        file=out,
    )
    pool = outcome.pool
    if pool is not None and pool.completed:
        print(
            f"pool     : jobs={pool.jobs} wall={pool.wall_s:.2f}s "
            f"busy={pool.busy_s:.2f}s utilization={pool.utilization:.2f} "
            f"speedup={pool.speedup_vs_serial:.2f}x vs serial",
            file=out,
        )
    if outcome.merged_path is not None:
        print(f"merged   : {outcome.merged_path}", file=out)
    elif outcome.pending:
        print("resume   : run the same command again (or 'sweep resume')", file=out)


def _watch(args, store, units, out):
    """``sweep watch``: re-render snapshots until the campaign is done.

    ``--once`` prints a single frame (what scripts and tests use); the
    live mode separates frames with a blank line rather than cursor
    tricks so it stays readable in logs and dumb terminals alike.
    """
    from repro.tracing.analytics import render_watch, watch_snapshot

    while True:
        snapshot = watch_snapshot(store, units)
        print(render_watch(snapshot), file=out)
        if args.once or snapshot["complete"]:
            break
        print(file=out)
        time.sleep(args.interval)
    bad = sum(
        n for status, n in snapshot["counts"]["by_status"].items() if status != "ok"
    )
    if snapshot["counts"]["pending"]:
        return EXIT_PENDING
    return EXIT_UNCLEAN if bad else EXIT_OK


def _campaign_exit_code(store, config):
    """0 clean-and-complete, 1 complete-with-findings, 3 pending."""
    counts = store.status(config.expand())
    if counts["pending"]:
        return EXIT_PENDING
    bad = sum(n for status, n in counts["by_status"].items() if status != "ok")
    return EXIT_UNCLEAN if bad else EXIT_OK


def _run(args, parser, out, store=None, config=None):
    if config is None:
        config = _load_config(args, parser)
    progress = None if args.quiet else (lambda line: print(line, file=out))
    try:
        outcome = run_campaign(
            config,
            root=args.root if store is None else store.directory.parent,
            campaign=getattr(args, "id", None)
            if store is None
            else store.directory.name,
            jobs=args.jobs,
            max_units=getattr(args, "max_units", None),
            timeout_s=args.timeout,
            progress=progress,
            merge=not getattr(args, "no_merge", False),
            trace=getattr(args, "trace", False),
        )
    except (ConfigError, StoreError) as error:
        print(f"error: {error}", file=out)
        return EXIT_USAGE
    _print_outcome(outcome, out)
    return _campaign_exit_code(CampaignStore(outcome.directory), config)


def main(argv=None, out=sys.stdout):
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        return _run(args, parser, out)

    store = _resolve(args)
    try:
        config = store.read_config()
    except (StoreError, ConfigError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=out)
        return EXIT_USAGE

    if args.command == "resume":
        return _run(args, parser, out, store=store, config=config)

    units = config.expand()
    if args.command == "status":
        if args.json:
            from repro.tracing.analytics import status_document

            document = status_document(store, units)
            print(json.dumps(document, sort_keys=True, indent=2), file=out)
            return EXIT_OK
        counts = store.status(units)
        print(f"campaign : {store.directory.name}", file=out)
        print(f"store    : {store.directory}", file=out)
        by_status = ", ".join(
            f"{count} {status}" for status, count in sorted(counts["by_status"].items())
        )
        print(
            f"units    : {counts['total']} total, {counts['done']} done"
            + (f" ({by_status})" if by_status else "")
            + f", {counts['pending']} pending",
            file=out,
        )
        print(f"merged   : {'yes' if counts['merged'] else 'no'}", file=out)
        return EXIT_OK

    if args.command == "watch":
        return _watch(args, store, units, out)

    if args.command == "report":
        from repro.tracing.analytics import render_report, straggler_report

        report = straggler_report(store, units, factor=args.straggler_factor)
        print(render_report(report), file=out)
        return _campaign_exit_code(store, config)

    # merge
    try:
        path = store.merge(units, partial=args.partial)
    except StoreError as error:
        print(f"error: {error}", file=out)
        return EXIT_USAGE
    print(f"merged   : {path}", file=out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
