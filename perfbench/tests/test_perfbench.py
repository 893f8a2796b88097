"""perfbench's own tests: ``PYTHONPATH=src python -m pytest perfbench/tests -q``."""

import json
import os
import signal

import pytest

from perfbench.cli import BENCHMARK, with_units
from perfbench.compare import compare_metric
from perfbench.golden import diff_golden, golden_path
from perfbench.hostspeed import REFERENCE_S, ScaledTimer
from perfbench.measure import (
    measure,
    measure_traced,
    tail_level,
    weighted_percentile,
)
from perfbench.spans import LayerClock
from perfbench.workloads import WORKLOADS, Program, workload_programs

SPEC = json.loads(BENCHMARK.read_text())


@pytest.fixture(scope="module")
def small_program():
    """The seed-0 program with the fewest instructions (dt3)."""
    return workload_programs(0)[-1]


def test_workloads_match_benchmark_json():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_smoke_emits_the_declared_metrics(name, small_program):
    workload = WORKLOADS[name]
    doc, records = measure(workload, 0, 1, programs=[small_program])
    assert doc["passes"] == 1 and doc["failed"] == 0, doc["failures"]
    assert set(doc["metrics"]) == {spec["name"] for spec in SPEC["end_to_end"]}
    with_units(doc, SPEC)  # raises on any undeclared or missing metric
    assert len(records) == len(workload.cells([small_program]))

    traced, _, spans = measure_traced(workload, 0, programs=[small_program])
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == {spec["name"] for spec in SPEC["per_layer"]}
    assert traced["span_sum_worst_gap"] < 0.01
    names = {record["name"] for record in spans.records}
    assert {"workload", "setup", "pass", "cell", "compile", "link"} <= names


def test_wrong_expected_output_is_counted_not_raised(small_program):
    broken = Program(
        small_program.name,
        small_program.source,
        tuple(word ^ 1 for word in small_program.expected),
        small_program.quick,
    )
    doc, _ = measure(WORKLOADS["exec-hot"], 0, 1, programs=[broken])
    assert doc["failed"] > 0 and doc["failed_frac"] > 0
    assert not doc["correct"]
    assert "wrong debug words" in doc["failures"][0]["problems"][0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_nested_spans():
    clock = FakeClock()
    layers = LayerClock(("outer", "a", "b", "c"), clock=clock)

    def leaf(seconds):
        clock.now += seconds

    def b_body():
        clock.now += 1.0
        layers.wrap(leaf, "c")(1.0)  # c nested inside b

    def outer_body():
        clock.now += 2.0
        layers.wrap(leaf, "a")(3.0)
        layers.wrap(b_body, "b")()
        layers.wrap(leaf, "a")(0.5)
        clock.now += 1.5

    layers.call("outer", outer_body)
    totals = layers.take()
    assert totals == {
        "outer": (1, 3.5),
        "a": (2, 3.5),
        "b": (1, 1.0),
        "c": (1, 1.0),
    }
    assert sum(seconds for _, seconds in totals.values()) == clock.now == 9.0
    assert layers.take()["a"] == (0, 0.0)


def test_scaled_timer_divides_by_the_reference_loops_around_and_inside():
    clock = FakeClock()
    loop_times = iter([2 * REFERENCE_S, 3 * REFERENCE_S, 4 * REFERENCE_S])

    def loop():
        seconds = next(loop_times)
        clock.now += seconds
        return seconds

    timer = ScaledTimer(clock=clock, probe=loop)

    def phase():
        clock.now += 3.0
        os.kill(os.getpid(), signal.SIGPROF)  # as the profiling timer would
        return "done"

    # 3 s of phase (its in-phase loop taken out) while the loop ran three
    # times slower than unloaded.
    assert timer(phase) == ("done", pytest.approx(1.0))
    assert timer.summary()["probes"] == 3


def test_tail_rule_is_p75_at_forty_samples():
    assert tail_level(40) == 75.0
    assert tail_level(32) == 68.75
    assert tail_level(10) is None
    equal = [(float(value), 1) for value in range(40, 0, -1)]
    assert weighted_percentile(equal, tail_level(40)) == 30.0
    # Weight moves the percentile: one heavy fast sample holds most of it.
    skewed = [(1.0, 97)] + [(float(value), 1) for value in range(2, 5)]
    assert weighted_percentile(skewed, 75) == 1.0
    assert weighted_percentile(skewed, 99) == 3.0


def test_same_seed_same_order_and_golden_results(small_program):
    workload = WORKLOADS["exec-hot"]
    cells = workload.cells(workload_programs(0))
    assert [c.id for c in workload.order(cells, 0, 1)] == [
        c.id for c in workload.order(cells, 0, 1)
    ]
    assert [c.id for c in workload.order(cells, 0, 1)] != [
        c.id for c in workload.order(cells, 1, 1)
    ]
    _, first = measure(workload, 0, 1, programs=[small_program])
    _, second = measure(workload, 0, 1, programs=[small_program])
    assert first == second
    golden = json.loads(golden_path(workload.name).read_text())["cells"]
    assert {cell: golden[cell] for cell in first} == first
    missing = sorted(set(golden) - set(first))
    assert diff_golden(workload.name, first)["changed"] == missing


@pytest.mark.parametrize(
    "base, change, verdict",
    [
        ([100.0, 101.0, 99.0], [98.0, 97.0, 99.0], "ok"),
        ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "worse"),
        ([100.0, 140.0, 60.0], [80.0, 81.0, 79.0], "unresolved"),
        ([100.0, 140.0, 60.0], [200.0, 210.0, 205.0], "ok"),
    ],
)
def test_compare_verdicts(base, change, verdict):
    spec = {"name": "instr_per_s", "unit": "instr/s", "better": "higher", "bound": 0.1}
    row = compare_metric(
        spec,
        {"value": sorted(base)[1], "samples": base},
        {"value": sorted(change)[1], "samples": change},
    )
    assert row["verdict"] == verdict
