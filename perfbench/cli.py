"""Command line: ``run``, ``compare``, and the per-workload child.

::

    PYTHONPATH=src python -m perfbench run --seed 0
    PYTHONPATH=src python -m perfbench run --seed 1 --workload exec-hot --traced
    PYTHONPATH=src python -m perfbench compare A.json B.json
    python3 perfbench/run.py --workload exec-hot --seed 0 --seconds 10 --trace 0

Every workload runs in a fresh child process, one at a time, so each
starts from a clean interpreter and its peak RSS is its own. The child
prints one JSON document on stdout; the parent attaches units from
``BENCHMARK.json``, prints the metrics, and writes ``--out``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SCHEMA = "perfbench-run/1"

#: A child that has not finished by then is killed; the run fails.
CHILD_TIMEOUT_S = 170


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


def workload_names():
    # From BENCHMARK.json (a test keeps it equal to WORKLOADS), so that
    # the parent process does not import the simulator its child runs.
    return [workload["name"] for workload in load_benchmark()["workloads"]]


# -- the child --------------------------------------------------------------------


def child_main(argv):
    from perfbench.golden import GOLDEN_SEED, diff_golden, golden_path, write_golden
    from perfbench.measure import measure, measure_traced
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench _child")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.traced:
        doc, records, spans = measure_traced(workload, args.seed)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(spans.records) + "\n")
    else:
        doc, records = measure(workload, args.seed, args.seconds)

    doc["golden"] = None
    if args.seed == GOLDEN_SEED:
        if args.update_golden:
            write_golden(workload.name, records)
        if golden_path(workload.name).exists():
            doc["golden"] = diff_golden(workload.name, records)
    print(json.dumps(doc))
    return 0


def run_child(workload, seed, seconds, traced, spans=None, update_golden=False):
    """Run one workload in a fresh interpreter; returns its document."""
    command = [
        sys.executable,
        "-m",
        "perfbench",
        "_child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
    ]
    if traced:
        command.append("--traced")
    if spans:
        command += ["--spans", str(spans)]
    if update_golden:
        command.append("--update-golden")
    env = dict(os.environ)
    # The build cache's disk layer would write outside the checkout.
    env.pop("REPRO_BUILD_CACHE", None)
    # A fixed string-hash seed: dict layouts keyed by hashed names and
    # enums, and with them host speed, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def with_units(doc, benchmark):
    """Attach each metric's unit; every metric must be declared."""
    section = "per_layer" if doc["traced"] else "end_to_end"
    units = {spec["name"]: spec["unit"] for spec in benchmark[section]}
    missing = sorted(set(units) ^ set(doc["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json {section}: {missing}")
    for name, record in doc["metrics"].items():
        record["unit"] = units[name]
    return doc


def print_doc(doc, out=sys.stdout):
    kind = "traced" if doc["traced"] else "untraced"
    print(
        f"== {doc['workload']} (seed {doc['seed']}, {kind}, {doc['passes']} "
        f"pass(es) x {doc['cells']} cells; attempted {doc['attempted']}, "
        f"failed {doc['failed']}, failed_frac {doc['failed_frac']:.4f})",
        file=out,
    )
    for name, record in doc["metrics"].items():
        print(f"  {name:<36} {record['value']:>16.6g} {record['unit']}", file=out)
    if not doc["traced"]:
        reported = doc["reported"]
        print("  reported, not bounded:", file=out)
        for name in ("us_per_instr_p50", "us_per_instr_tail"):
            value = reported[name]["value"]
            print(f"  {name:<36} {value:>16.6g} us/instr", file=out)
        print(f"  {'failed_frac':<36} {doc['failed_frac']:>16.6g} ratio", file=out)
        if reported["tail_percentile"] is not None:
            print(
                f"  (tail is p{reported['tail_percentile']:.2f} of "
                f"n={reported['tail_n']} cell samples weighted by instructions)",
                file=out,
            )
    for failure in doc["failures"]:
        print(f"  FAILED {failure['cell']}: {'; '.join(failure['problems'])}", file=out)
    golden = doc.get("golden")
    if golden and golden["first"]:
        first = golden["first"]
        print(
            f"  !!! guest behaviour changed: {len(golden['changed'])} of "
            f"{golden['checked']} cells differ from perfbench/golden; first "
            f"{first['cell']} at {first['key']}",
            file=out,
        )


def run_workloads(names, seed, seconds, traced, update_golden=False):
    benchmark = load_benchmark()
    docs = {}
    for name in names:
        spans = None
        if traced:
            spans = ROOT / ".perfbench" / f"{name}-seed{seed}.spans.json"
        doc = run_child(name, seed, seconds, traced, spans, update_golden)
        docs[name] = with_units(doc, benchmark)
        print_doc(docs[name])
    return {
        "schema": SCHEMA,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": docs,
    }


# -- commands ---------------------------------------------------------------------


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def run_main(argv):
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(prog="perfbench run")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--workload", nargs="+", choices=workload_names())
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--out", default=None, help="write the run document here")
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite perfbench/golden from this run (seed 0 only)",
    )
    args = parser.parse_args(argv)
    if args.update_golden and args.seed != 0:
        parser.error("--update-golden needs --seed 0")
    names = args.workload or workload_names()
    document = run_workloads(
        names, args.seed, args.seconds, args.traced, args.update_golden
    )
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def compare_main(argv):
    from perfbench.compare import compare_runs, render

    parser = argparse.ArgumentParser(prog="perfbench compare")
    parser.add_argument("base", help="the parent's run document")
    parser.add_argument("change", help="the change's run document")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    rows, problems = compare_runs(base, change, load_benchmark())
    print(render(rows, problems))
    return 1 if problems else 0


def benchmark_main(argv):
    """The ``BENCHMARK.json`` command: one workload, one JSON result line."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    document = run_workloads(
        [args.workload], args.seed, args.seconds, bool(args.trace)
    )
    doc = document["workloads"][args.workload]
    line = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": record["value"], "unit": record["unit"]}
            for name, record in doc["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


COMMANDS = {"run": run_main, "compare": compare_main, "_child": child_main}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        print("usage: python -m perfbench {run,compare} ...", file=sys.stderr)
        return 2
    return COMMANDS[argv[0]](argv[1:])
