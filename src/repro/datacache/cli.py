"""``python -m repro datacache`` -- sweep and report the data cache.

Two subcommands:

``sweep``
    Expand a (benchmark x mode x cleaning x geometry) campaign and run
    every cell, writing one byte-reproducible JSON document. ``--jobs
    1`` (the default) executes units inline; ``--jobs N`` runs the same
    content-addressed units on the sweep engine's worker pool and
    reassembles them in expansion order, so the output file is
    byte-identical either way -- the CI ``datacache-smoke`` job diffs
    two independent runs to pin exactly that.

``report``
    Render a sweep document as a per-benchmark table and, when the
    grid contains them, the write-back verdict: cycles and energy of
    every write-back cell relative to the same geometry's
    through/none cell (negative = write-back wins).
"""

import argparse
import json
import sys
from pathlib import Path

from repro.flags import add_run_flags
from repro.sweep.campaigns import datacache_campaign
from repro.sweep.units import UnitError, execute_unit

DEFAULT_OUT = "results/datacache/sweep.json"


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro datacache",
        description="Sweep and report the FRAM data-plane cache.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="run a mode x cleaning x geometry x benchmark grid"
    )
    sweep.add_argument(
        "--benchmarks",
        nargs="+",
        default=["crc", "rc4", "rsa", "lzfx"],
        metavar="NAME",
    )
    sweep.add_argument(
        "--modes", nargs="+", default=["through", "back"], metavar="MODE"
    )
    sweep.add_argument(
        "--cleanings",
        nargs="+",
        default=["none", "alru", "acp"],
        metavar="SPEC",
        help="cleaning-policy specs (core.policy.make_cleaning syntax)",
    )
    sweep.add_argument(
        "--geometries",
        nargs="+",
        default=["16x2x16", "8x2x16", "16x2x8"],
        metavar="SxWxL",
    )
    add_run_flags(sweep, scale=1)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument(
        "--out", default=DEFAULT_OUT, help=f"output path (default: {DEFAULT_OUT})"
    )
    sweep.add_argument("--quiet", action="store_true", help="no per-cell lines")

    report = commands.add_parser("report", help="render a sweep document")
    report.add_argument("document", help="sweep JSON written by 'sweep'")
    return parser


def _campaign(args):
    return datacache_campaign(
        benchmarks=args.benchmarks,
        modes=args.modes,
        cleanings=args.cleanings,
        geometries=args.geometries,
        scale=args.scale,
    )


def _serial_cells(config, out, quiet):
    cells = []
    for _key, spec in config.expand():
        payload = execute_unit(spec)
        cells.append(payload)
        if not quiet:
            print(_cell_line(payload), file=out)
    return cells


def _parallel_cells(config, jobs, out, quiet):
    """The same cells via the worker pool, in expansion order."""
    from repro.sweep import CampaignStore, run_campaign

    outcome = run_campaign(
        config,
        jobs=jobs,
        progress=None if quiet else (lambda line: print(line, file=out)),
    )
    if not outcome.complete:
        raise RuntimeError(
            f"datacache campaign incomplete ({outcome.pending} units "
            f"pending); resume with: python -m repro sweep resume "
            f"{outcome.directory}"
        )
    store = CampaignStore(outcome.directory)
    cells = []
    for key, spec in config.expand():
        record = store.read_unit(key)
        if record["status"] != "ok":
            raise RuntimeError(
                f"unit {key} ({spec['benchmark']}/{spec['mode']}/"
                f"{spec['cleaning']}/{spec['geometry']}) failed: "
                f"{record['result'].get('error')}"
            )
        cells.append(record["result"])
    return cells


def _cell_line(payload):
    label = (
        f"{payload['benchmark']:>8} {payload['mode']:>7} "
        f"{payload['cleaning']:>5} {payload['geometry']:>8}"
    )
    if "skipped" in payload:
        return f"{label}  skipped ({payload['skipped']})"
    result = payload["result"]
    stats = payload["stats"]
    return (
        f"{label}  {result['total_cycles']:>9} cycles  "
        f"{result['energy_nj'] / 1000:>9.2f} uJ  "
        f"hit {stats['hit_rate']:6.1%}  wb {stats['writebacks']:>5}"
    )


def run_sweep(args, out):
    config = _campaign(args)
    if args.jobs > 1:
        cells = _parallel_cells(config, args.jobs, out, args.quiet)
    else:
        cells = _serial_cells(config, out, args.quiet)
    document = {
        "schema": "repro-datacache-sweep/1",
        "campaign": config.as_dict(),
        "cells": cells,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    ran = sum(1 for cell in cells if "skipped" not in cell)
    print(
        f"wrote {path} ({ran} cells run, {len(cells) - ran} skipped)",
        file=out,
    )
    return 0


def _through_baselines(cells):
    """(benchmark, geometry) -> the through/none cell, for the verdict."""
    baselines = {}
    for cell in cells:
        if cell.get("mode") == "through" and cell.get("cleaning") == "none":
            if "result" in cell:
                baselines[(cell["benchmark"], cell["geometry"])] = cell
    return baselines


def run_report(args, out):
    document = json.loads(Path(args.document).read_text())
    cells = document.get("cells", [])
    if not cells:
        print("empty sweep document", file=out)
        return 2
    print("datacache sweep report", file=out)
    for cell in cells:
        print(_cell_line(cell), file=out)

    baselines = _through_baselines(cells)
    verdict = [
        cell
        for cell in cells
        if cell.get("mode") == "back"
        and "result" in cell
        and (cell["benchmark"], cell["geometry"]) in baselines
    ]
    if verdict:
        print("\nwrite-back vs write-through (same geometry; negative = "
              "write-back wins):", file=out)
        for cell in verdict:
            base = baselines[(cell["benchmark"], cell["geometry"])]
            cycles = cell["result"]["total_cycles"]
            base_cycles = base["result"]["total_cycles"]
            energy = cell["result"]["energy_nj"]
            base_energy = base["result"]["energy_nj"]
            print(
                f"{cell['benchmark']:>8} {cell['cleaning']:>5} "
                f"{cell['geometry']:>8}  cycles "
                f"{100 * (cycles - base_cycles) / base_cycles:+7.2f}%  "
                f"energy {100 * (energy - base_energy) / base_energy:+7.2f}%",
                file=out,
            )
    return 0


def main(argv=None, out=sys.stdout):
    args = _parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return run_sweep(args, out)
        return run_report(args, out)
    except (UnitError, RuntimeError, OSError, ValueError) as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
