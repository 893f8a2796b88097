"""``python -m perfbench compare BASE.json CHANGE.json``.

Applies the regression bounds from ``BENCHMARK.json`` to two untraced
run documents written by ``perfbench run --out``. For every workload
and end-to-end metric it prints each side's median and quartiles over
the run's samples (passes, or set-up repeats), then a verdict:

* ``worse`` -- the change's median is worse than the base's by more
  than the bound (fails the comparison);
* ``unresolved`` -- the base's own spread (IQR over median) is wider
  than the bound, so no verdict is possible, unless every change
  sample reads better than every base sample;
* ``ok`` otherwise.

The per-instruction percentiles follow, marked ``info``: every run
reports them, but they carry no bound. Any increase in ``failed_frac``
fails the comparison as well.
"""

import statistics


def _relative_change(base, change, better):
    """How much worse *change* is than *base*, as a share of *base*."""
    if not base:
        return 0.0
    worse = change - base if better == "lower" else base - change
    return worse / abs(base)


def _all_better(base_samples, change_samples, better):
    if better == "lower":
        return max(change_samples) < min(base_samples)
    return min(change_samples) > max(base_samples)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


#: Shown for information: reported by every run, bounded by none.
REPORTED = tuple(
    {"name": name, "unit": "us/instr", "better": "lower", "bound": None}
    for name in ("us_per_instr_p50", "us_per_instr_tail")
)


def compare_metric(spec, base, change):
    """Verdict row for one metric; *base*/*change* are metric records."""
    base_samples = base.get("samples") or [base["value"]]
    change_samples = change.get("samples") or [change["value"]]
    b_q1, _, b_q3 = quartiles(base_samples)
    c_q1, _, c_q3 = quartiles(change_samples)
    base_value, change_value = base["value"], change["value"]
    worse_by = _relative_change(base_value, change_value, spec["better"])
    spread = (b_q3 - b_q1) / abs(base_value) if base_value else 0.0
    if spec["bound"] is None:
        verdict = "info"
    elif spread > spec["bound"] and not _all_better(
        base_samples, change_samples, spec["better"]
    ):
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "worse"
    else:
        verdict = "ok"
    return {
        "metric": spec["name"],
        "unit": spec["unit"],
        "base": (b_q1, base_value, b_q3),
        "change": (c_q1, change_value, c_q3),
        "worse_by": worse_by,
        "spread": spread,
        "bound": spec["bound"],
        "verdict": verdict,
    }


def compare_runs(base, change, benchmark):
    """Returns (rows by workload, problems); problems fail the comparison."""
    problems = []
    for side, document in (("base", base), ("change", change)):
        if document.get("traced"):
            problems.append(f"{side} is a traced run; compare untraced runs")
    if problems:
        return {}, problems
    rows = {}
    for name in sorted(set(base["workloads"]) | set(change["workloads"])):
        if name not in base["workloads"] or name not in change["workloads"]:
            problems.append(f"{name}: present in only one run")
            continue
        left, right = base["workloads"][name], change["workloads"][name]
        if right["failed_frac"] > left["failed_frac"]:
            problems.append(
                f"{name}: failed_frac rose from {left['failed_frac']:.4f} "
                f"to {right['failed_frac']:.4f}"
            )
        rows[name] = []
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            if metric not in left["metrics"] or metric not in right["metrics"]:
                problems.append(f"{name}: metric {metric} missing")
                continue
            row = compare_metric(
                spec, left["metrics"][metric], right["metrics"][metric]
            )
            rows[name].append(row)
            if row["verdict"] == "worse":
                problems.append(
                    f"{name}: {metric} worse by {100 * row['worse_by']:.1f}% "
                    f"(bound {100 * spec['bound']:.1f}%)"
                )
        for spec in REPORTED:
            metric = spec["name"]
            rows[name].append(
                compare_metric(
                    spec, left["reported"][metric], right["reported"][metric]
                )
            )
    return rows, problems


def _triple(values):
    q1, median, q3 = values
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def render(rows, problems):
    lines = []
    for name, metrics in rows.items():
        lines.append(f"== {name}")
        lines.append(
            f"  {'metric':<18} {'base median [q1, q3]':>34} "
            f"{'change median [q1, q3]':>34} {'worse':>7} {'bound':>6}  verdict"
        )
        for row in metrics:
            bound = "-" if row["bound"] is None else f"{100 * row['bound']:.1f}%"
            lines.append(
                f"  {row['metric']:<18} {_triple(row['base']):>34} "
                f"{_triple(row['change']):>34} {100 * row['worse_by']:>6.1f}% "
                f"{bound:>6}  {row['verdict']}"
            )
    for problem in problems:
        lines.append(f"FAIL: {problem}")
    lines.append("compare: " + ("FAIL" if problems else "ok"))
    return "\n".join(lines)
