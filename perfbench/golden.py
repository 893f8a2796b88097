"""Per-cell guest results pinned for seed 0.

Each workload's file under ``perfbench/golden/`` holds, for every cell
of a seed-0 run, ``RunResult.as_dict()`` and the runtime stats. A run at
seed 0 diffs its cells against them: a change that only touches the
simulator must produce no difference, and a change to the modelled
design shows up here (loudly, without counting as a failure).
"""

import json
from pathlib import Path

GOLDEN_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.json"


def first_difference(expected, actual, path=""):
    """Dotted path of the first differing key (sorted order), or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                return where
            found = first_difference(expected[key], actual[key], where)
            if found is not None:
                return found
        return None
    return None if expected == actual else path


def diff_golden(workload, records):
    """Compare *records* (cell -> guest record) with the workload's golden.

    Returns ``{"checked", "changed", "first"}``; ``first`` names the
    first differing cell (in cell-id order) and key, or is None.
    """
    golden = json.loads(golden_path(workload).read_text())["cells"]
    changed = []
    first = None
    for cell in sorted(set(golden) | set(records)):
        where = first_difference(golden.get(cell), records.get(cell))
        if where is not None:
            changed.append(cell)
            if first is None:
                first = {"cell": cell, "key": where or "record"}
    return {"checked": len(records), "changed": changed, "first": first}


def write_golden(workload, records):
    document = {"workload": workload, "seed": GOLDEN_SEED, "cells": records}
    path = golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path
