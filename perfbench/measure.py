"""Measuring one workload, untraced or traced, inside its child process.

The untraced run times the set-up several times cold, runs one untimed
warm-up cell, then a fixed number of passes over every cell in a seeded
order, one cell at a time. Each cell's measured phase is exactly the
run (``Board.run`` / ``system.run``) or the replay
(``ReplayEngine.replay``); builds, observer attachment and output checks
stay outside it. Set-ups and measured phases are timed at the reference
host speed (:mod:`perfbench.hostspeed`).

The traced run is separate and its numbers never mix with the
untraced ones: one cold set-up recorded as coarse spans, a
``sys.setprofile`` call-counting pass and an untraced reference timing
over the generated programs' cells, then one pass with the layer
wrappers installed.
"""

import gc
import resource
import statistics
import time

import repro.toolchain.cache as build_cache

from perfbench.hostspeed import ScaledTimer
from perfbench.spans import (
    BOARD,
    LAYERS,
    LayerClock,
    NullSpans,
    Spans,
    count_python_calls,
    install_layers,
)
from perfbench.workloads import Cell, CellRun, Replay, workload_programs

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: A traced cell's layer self times must sum to its run span within this.
SPAN_TOLERANCE = 0.01

NULL_SPANS = NullSpans()


def passes_for(workload, seconds):
    """Whole passes that fill *seconds* at the workload's nominal speed.

    Fixed by (workload, seconds) rather than by the clock, so every run
    of a workload takes the same number of samples.
    """
    return max(1, round(seconds / workload.nominal_pass_s))


def timed(function):
    """Raw timer: ``(function(), perf_counter seconds)``."""
    started = time.perf_counter()
    value = function()
    return value, time.perf_counter() - started


def tail_level(n, beyond=TAIL_BEYOND):
    """The highest percentile of *n* samples with *beyond* samples above
    it, or ``None`` when there are not more than *beyond*: p75 at n=40."""
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def weighted_percentile(samples, percentile):
    """The value below which *percentile* % of the total weight lies.

    *samples* are ``(value, weight)`` pairs; with equal weights this is
    the plain order statistic (p75 of 1..40 is 30).
    """
    ordered = sorted(samples)
    threshold = percentile / 100.0 * sum(weight for _, weight in ordered)
    cumulative = 0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= threshold:
            return value
    return ordered[-1][0]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Every cell execution of a run, with its failures."""

    def __init__(self):
        self.runs = []
        self.failures = []
        self.attempted = 0
        self.first_guest = {}

    def setup_problems(self, problems):
        for key, found in problems.items():
            self.attempted += 1
            self.failures.append({"cell": key, "problems": list(found)})

    def add(self, run, measured=True):
        """Record *run*; a guest result that differs from the cell's
        first one (passes must be deterministic) is a failure too."""
        self.attempted += 1
        if run.guest is not None:
            first = self.first_guest.setdefault(run.cell, run.guest)
            if first != run.guest:
                run.problems.append("guest result differs from the first pass")
        if run.failed:
            self.failures.append({"cell": run.cell, "problems": run.problems})
        if measured:
            self.runs.append(run)
        return run

    @property
    def failed(self):
        return len(self.failures)

    def records(self, cells):
        """The first guest record of each of *cells* that produced one."""
        return {
            cell.id: self.first_guest[cell.id]
            for cell in cells
            if cell.id in self.first_guest
        }

    def summary(self):
        attempted = max(self.attempted, 1)
        return {
            "attempted": attempted,
            "failed": self.failed,
            "failed_frac": self.failed / attempted,
            "correct": self.failed == 0,
            "failures": self.failures[:20],
        }


def _execute(workload, cell, prepared, timer, ledger, measured=True, spans=NULL_SPANS):
    try:
        with spans.span("build", cell=cell.id):
            ready = workload.fresh(cell, prepared)
    except Exception as error:  # a build that fails is a failed cell
        run = CellRun(cell.id, cell.program.quick)
        run.problems.append(f"{type(error).__name__}: {error}")
        return ledger.add(run, measured)
    return ledger.add(workload.run(cell, ready, timer), measured)


def cold_setup(workload, cells, spans, timer=timed):
    """Clear the build cache, then set every cell up; returns the time."""
    build_cache.BUILD_CACHE.clear()
    gc.collect()
    (prepared, problems), seconds = timer(lambda: workload.setup(cells, spans))
    return prepared, problems, seconds


def settle():
    """Collect, then exempt everything alive from collections until
    ``gc.unfreeze()``.

    The set-up's objects (captured traces above all) live for the whole
    run; without this a full collection scanning them lands inside
    whichever cell happens to trigger it.
    """
    gc.collect()
    gc.freeze()


# -- the untraced run ---------------------------------------------------------------


def guest_totals(runs):
    """Simulated cycles and energy (uJ) of one pass over the quick cells.

    Summed in cell-id order so the float total does not depend on the
    seeded run order.
    """
    records = {}
    for run in runs:
        if run.quick and run.guest is not None:
            records.setdefault(run.cell, run.guest["result"])
    cycles = sum(records[cell]["total_cycles"] for cell in sorted(records))
    energy = sum(records[cell]["energy_nj"] for cell in sorted(records))
    return cycles, energy / 1000.0


def e2e_metrics(runs, setup_times, passes):
    """The end-to-end metrics of an untraced run, with their samples.

    Returns ``(metrics, reported)``: the metrics ``BENCHMARK.json``
    bounds, and the per-instruction percentiles, which are reported but
    not bounded (see the README). ``instr_per_s`` and ``cells_per_s``
    describe one pass in which every cell takes its median time over the
    passes, so a slow outlier in one pass moves them less than a mean
    would; their samples are the passes.
    """
    good = [run for run in runs if not run.failed and run.instructions]
    seconds_by_cell = {}
    instructions = {}
    for run in good:
        seconds_by_cell.setdefault(run.cell, []).append(run.seconds)
        instructions[run.cell] = run.instructions
    pass_seconds = sum(
        statistics.median(values) for values in seconds_by_cell.values()
    )
    per_pass = []
    for index in range(passes):
        these = [run for run in good if run.pass_index == index]
        seconds = sum(run.seconds for run in these)
        if seconds:
            per_pass.append(
                (sum(run.instructions for run in these) / seconds, len(these) / seconds)
            )
    cycles, energy = guest_totals(good)

    def metric(value, samples=None):
        return {"value": value, "samples": samples or [value]}

    metrics = {
        "instr_per_s": metric(
            _ratio(sum(instructions.values()), pass_seconds),
            [sample[0] for sample in per_pass],
        ),
        "cells_per_s": metric(
            _ratio(len(seconds_by_cell), pass_seconds),
            [sample[1] for sample in per_pass],
        ),
        "setup_s": metric(statistics.median(setup_times), list(setup_times)),
        "peak_rss_mb": metric(peak_rss_mb()),
        "guest_cycles": metric(cycles),
        "guest_energy_uj": metric(energy),
    }

    # Each cell sample weighs its guest instructions: the percentiles
    # describe what one guest instruction cost, so a short generated
    # program moves them no more than the same number of crc
    # instructions would.
    per_instr = [
        (run.seconds * 1e6 / run.instructions, run.instructions) for run in good
    ]
    level = tail_level(len(per_instr))
    reported = {
        "us_per_instr_p50": metric(
            weighted_percentile(per_instr, 50) if per_instr else 0.0
        ),
        "us_per_instr_tail": metric(
            weighted_percentile(per_instr, level) if level else 0.0
        ),
        "tail_percentile": level,
        "tail_n": len(per_instr),
        "cell_us_per_instr": {
            cell: statistics.median(values) * 1e6 / instructions[cell]
            for cell, values in sorted(seconds_by_cell.items())
        },
    }
    return metrics, reported


def measure(workload, seed, seconds, programs=None):
    """One untraced run of *workload*; returns (doc, guest records).

    *programs* replaces the seed's program set (tests).
    """
    cells = workload.cells(programs or workload_programs(seed))
    ledger = Ledger()
    timer = ScaledTimer()
    setup_times = []
    for _ in range(workload.setup_repeats):
        prepared, problems, elapsed = cold_setup(workload, cells, NULL_SPANS, timer)
        setup_times.append(elapsed)
    ledger.setup_problems(problems)
    settle()

    first_order = workload.order(cells, seed, 0)
    warm = next(
        (cell for cell in first_order if not cell.program.quick), first_order[0]
    )
    _execute(workload, warm, prepared, timed, ledger, measured=False)

    passes = passes_for(workload, seconds)
    for index in range(passes):
        for cell in workload.order(cells, seed, index):
            run = _execute(workload, cell, prepared, timer, ledger)
            run.pass_index = index

    gc.unfreeze()
    metrics, reported = e2e_metrics(ledger.runs, setup_times, passes)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "traced": False,
        "seconds": seconds,
        "passes": passes,
        "cells": len(cells),
        "metrics": metrics,
        "reported": reported,
        "host_speed": timer.summary(),
        **ledger.summary(),
    }
    return doc, ledger.records(cells)


# -- the traced run -------------------------------------------------------------------


def _traced_cell(workload, cell, prepared, timer, ledger, spans, measured=True):
    """Run one cell under the layer clock; checks the span arithmetic."""
    timer.cell = cell.id
    timer.kind = "replay" if isinstance(cell.config, Replay) else "run"
    timer.layers = None
    with spans.span("cell", cell=cell.id):
        run = _execute(workload, cell, prepared, timer, ledger, measured, spans)
    if timer.layers is not None and timer.gap > SPAN_TOLERANCE:
        if not run.failed:
            ledger.failures.append({"cell": run.cell, "problems": run.problems})
        run.problems.append(
            f"layer self times miss the run span by {100 * timer.gap:.2f} %"
        )
    return run


class TracedTimer:
    """Times one cell's run as a coarse span over a :class:`LayerClock` root."""

    def __init__(self, spans, clock):
        self.spans = spans
        self.clock = clock
        self.cell = None
        self.kind = "run"
        self.layers = None
        self.gap = 0.0

    def __call__(self, function):
        self.clock.reset()
        with self.spans.span(self.kind, cell=self.cell) as record:
            value = self.clock.call(BOARD, function)
        self.layers = self.clock.take()
        span_seconds = record["end"] - record["start"]
        self_total = sum(seconds for _, seconds in self.layers.values())
        self.gap = abs(self_total - span_seconds) / span_seconds
        return value, span_seconds


def _stats_sums(runs):
    totals = {
        "swapram_misses": 0,
        "words_copied": 0,
        "evictions": 0,
        "dc_accesses": 0,
        "dc_hits": 0,
        "fills": 0,
        "writebacks": 0,
        "fc_hits": 0,
        "fc_accesses": 0,
        "events": 0,
        "replay_s": 0.0,
        "instructions": 0,
    }
    for run in runs:
        totals["instructions"] += run.instructions
        totals["events"] += run.events
        if run.events:
            totals["replay_s"] += run.seconds
        if run.fram_cache is not None:
            totals["fc_hits"] += run.fram_cache["hits"]
            totals["fc_accesses"] += run.fram_cache["accesses"]
        stats = (run.guest or {}).get("stats") or {}
        if "caches" in stats:  # SwapRamStats
            totals["swapram_misses"] += stats["misses"]
            totals["words_copied"] += stats["words_copied"]
            totals["evictions"] += stats["evictions"]
        elif "fills" in stats:  # DataCacheStats
            totals["dc_accesses"] += stats["accesses"]
            totals["dc_hits"] += stats["hits"]
            totals["fills"] += stats["fills"]
            totals["writebacks"] += stats["writebacks"]
    return totals


def layer_metrics(layers, runs, setup, probe, observed):
    """The per-layer metrics of a traced pass.

    *layers* is ``{layer: [calls, self_s]}`` over the pass's cells,
    *setup* the set-up phase seconds by span name, *probe* the
    call-count and overhead measurements, *observed* the
    (observed, detached) run seconds of the observer twins.
    """
    sums = _stats_sums(runs)
    instructions = sums["instructions"]

    def self_s(layer):
        return layers[layer][1]

    def per_instr(layer):
        return _ratio(layers[layer][0], instructions)

    return {
        "machine.cpu.self_s": self_s("machine.cpu"),
        "machine.cpu.calls_per_instr": per_instr("machine.cpu"),
        "machine.bus.self_s": self_s("machine.bus"),
        "machine.bus.calls_per_instr": per_instr("machine.bus"),
        "machine.accounting.self_s": self_s("machine.accounting"),
        "machine.accounting.calls_per_instr": per_instr("machine.accounting"),
        "machine.fram_cache.self_s": self_s("machine.fram_cache"),
        "machine.fram_cache.accesses": sums["fc_accesses"],
        "machine.fram_cache.hit_ratio": _ratio(sums["fc_hits"], sums["fc_accesses"]),
        "machine.board.self_s": self_s(BOARD),
        "host.py_calls_per_instr": _ratio(probe["calls"], probe["instructions"]),
        "core.hook_self_s": self_s("core"),
        "core.hook_calls": layers["core"][0],
        "core.words_copied": sums["words_copied"],
        "core.evictions": sums["evictions"],
        "core.misses_per_kinstr": 1000.0 * _ratio(sums["swapram_misses"], instructions),
        "datacache.self_s": self_s("datacache"),
        "datacache.accesses": sums["dc_accesses"],
        "datacache.hit_ratio": _ratio(sums["dc_hits"], sums["dc_accesses"]),
        "datacache.fills": sums["fills"],
        "datacache.writebacks": sums["writebacks"],
        "replay.self_s": self_s("replay"),
        "replay.events": sums["events"],
        "replay.events_per_s": _ratio(sums["events"], sums["replay_s"]),
        "replay.capture_s": setup["capture"],
        "toolchain.compile_s": setup["compile"],
        "toolchain.link_s": setup["link"],
        "core.build_s": setup["build"],
        "observers.self_s": self_s("observers"),
        "observers.overhead_frac": (
            _ratio(observed[0], observed[1]) - 1.0 if observed[1] else 0.0
        ),
        "trace.overhead_frac": _ratio(probe["traced_s"], probe["untraced_s"]) - 1.0,
    }


def measure_traced(workload, seed, programs=None):
    """One traced run of *workload*; returns (doc, guest records, spans)."""
    cells = workload.cells(programs or workload_programs(seed))
    ledger = Ledger()
    spans = Spans()
    probes = [cell for cell in cells if not cell.program.quick]

    with spans.span("workload", cell=workload.name):
        with spans.span("setup"):
            prepared, problems, _ = cold_setup(workload, cells, spans)
        ledger.setup_problems(problems)
        settle()
        setup = {
            name: spans.seconds(name)
            for name in ("compile", "link", "build", "capture")
        }

        # Untraced references on the generated programs' cells: Python
        # calls per guest instruction, and the time the traced pass's
        # overhead is measured against.
        probe = {"calls": 0, "instructions": 0, "untraced_s": 0.0, "traced_s": 0.0}
        for cell in probes:
            calls, run = count_python_calls(
                _execute, workload, cell, prepared, timed, ledger, False
            )
            probe["calls"] += calls
            probe["instructions"] += run.instructions
        for cell in probes:
            run = _execute(workload, cell, prepared, timed, ledger, measured=False)
            probe["untraced_s"] += run.seconds

        clock = LayerClock(LAYERS)
        timer = TracedTimer(spans, clock)
        totals = {layer: [0, 0.0] for layer in LAYERS}
        observed = [0.0, 0.0]  # observed cells' run seconds, their twins'
        worst_gap = 0.0
        with install_layers(clock), spans.span("pass", cell="0"):
            for cell in workload.order(cells, seed, 0):
                run = _traced_cell(workload, cell, prepared, timer, ledger, spans)
                if timer.layers is None:
                    continue
                worst_gap = max(worst_gap, timer.gap)
                if not cell.program.quick:
                    probe["traced_s"] += run.seconds
                for layer, (calls, self_seconds) in timer.layers.items():
                    totals[layer][0] += calls
                    totals[layer][1] += self_seconds
                if getattr(cell.config, "observers", None):
                    # The same cell with nothing attached, outside the pass's
                    # totals: what the observers cost.
                    twin = Cell(cell.program, cell.config.detached())
                    detached = _traced_cell(
                        workload, twin, prepared, timer, ledger, spans, measured=False
                    )
                    if timer.layers is not None:
                        worst_gap = max(worst_gap, timer.gap)
                    if not (run.failed or detached.failed):
                        observed[0] += run.seconds
                        observed[1] += detached.seconds

    gc.unfreeze()
    metrics = layer_metrics(totals, ledger.runs, setup, probe, observed)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "traced": True,
        "passes": 1,
        "cells": len(cells),
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "span_sum_worst_gap": worst_gap,
        **ledger.summary(),
    }
    return doc, ledger.records(cells), spans
