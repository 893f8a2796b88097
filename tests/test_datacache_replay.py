"""Replaying the data cache: write-through exact, write-back refused.

A write-through data cache is a *free replay dimension*: lookups are
transparent and only timing plus the durable write stream change, so a
baseline-shaped trace replays bit-identically under any write-through
geometry. Write-back breaks the premise -- deferred stores decouple
the durable FRAM writes from the recorded store events -- so validity
must refuse it loudly, both as a requested dimension and as a captured
trace, naming the config knob to flip.

The oracle below replays baseline captures of the quick set, difftest
programs and a local-array program under write-through caches, on
three plans and two FRAM read caches, and compares every result, stats,
FRAM-cache and counter field and every memory byte with executing the
same configuration, naming the first field that differs. A slice runs
in tier-1; ``--runslow`` runs the full matrix.
"""

from dataclasses import replace

import pytest

from repro.bench import QUICK_NAMES, get_benchmark
from repro.datacache.cache import DataCacheConfig
from repro.datacache.system import build_datacache
from repro.difftest import generate_program
from repro.machine.fram_cache import FramReadCache
from repro.replay import ReplayEngine, ReplayRefused, capture_source
from repro.replay import engine as engine_module
from repro.toolchain import PLANS, FitError

SOURCE = """
int table[48];

int churn(int rounds) {
    int i;
    int r;
    unsigned acc = 0;
    for (r = 0; r < rounds; r++) {
        for (i = 0; i < 48; i++) {
            table[i] = (table[i] + i + r) & 0xFFFF;
        }
    }
    for (i = 0; i < 48; i++) {
        acc = (acc + table[i]) & 0xFFFF;
    }
    return (int)acc;
}

int main(void) {
    __debug_out((unsigned)churn(5));
    return 0;
}
"""

WT = DataCacheConfig(mode="through", cleaning="none")
WB = DataCacheConfig(mode="back", cleaning="alru")

_CACHE = {}


def document_for(system, datacache=None):
    key = (system, None if datacache is None else tuple(sorted(
        datacache.as_dict().items())))
    if key not in _CACHE:
        _CACHE[key] = capture_source(SOURCE, system=system, datacache=datacache)
    return _CACHE[key]


def assert_result_identical(outcome, result, reference_stats=None):
    replayed = outcome.result
    for name in (
        "total_cycles", "unstalled_cycles", "stall_cycles", "instructions",
        "fram_accesses", "sram_accesses", "energy_nj", "debug_words",
    ):
        assert getattr(replayed, name) == getattr(result, name), name
    if reference_stats is not None:
        assert outcome.stats.as_dict() == reference_stats.as_dict()


def test_wt_capture_replays_bit_identically():
    document, system, result = document_for("datacache", WT)
    assert document.header["system"] == "datacache"
    assert document.header["capture_config"]["mode"] == "through"
    outcome = ReplayEngine(document).replay()
    assert_result_identical(outcome, result, system.stats)


def test_baseline_trace_grows_a_wt_datacache_dimension():
    document, _, _ = document_for("baseline")
    outcome = ReplayEngine(document).replay(datacache=WT)
    executed = build_datacache(SOURCE, PLANS["unified"], config=WT)
    result = executed.run()
    assert_result_identical(outcome, result, executed.stats)
    assert outcome.config["datacache"] == WT.as_dict()


def test_geometry_is_a_free_dimension_over_one_trace():
    document, _, _ = document_for("baseline")
    engine = ReplayEngine(document)
    for geometry in ("16x2x16", "8x2x16", "4x1x8"):
        config = WT.with_geometry(geometry)
        outcome = engine.replay(datacache=config)
        executed = build_datacache(SOURCE, PLANS["unified"], config=config)
        result = executed.run()
        assert_result_identical(outcome, result, executed.stats)


def test_write_back_request_is_refused_naming_the_knob():
    document, _, _ = document_for("baseline")
    with pytest.raises(ReplayRefused) as excinfo:
        ReplayEngine(document).replay(datacache=WB)
    message = str(excinfo.value)
    assert "write-back" in message
    assert "mode='through'" in message


def test_write_back_trace_is_refused_as_a_whole():
    # The capture itself is refused before it runs ...
    with pytest.raises(ReplayRefused) as excinfo:
        capture_source(SOURCE, system="datacache", datacache=WB)
    assert "mode='through'" in str(excinfo.value)
    # ... and a write-back trace (one stored before captures were
    # refused) is refused as a whole.
    from repro.replay.schema import TraceDocument

    captured, _, _ = document_for("datacache", WT)
    header = dict(captured.header)
    header["capture_config"] = WB.as_dict()
    document = TraceDocument(header=header, records=captured.records)
    with pytest.raises(ReplayRefused) as excinfo:
        ReplayEngine(document).replay()
    assert "mode='through'" in str(excinfo.value)


def test_datacache_over_swapram_trace_is_refused():
    document, _, _ = document_for("swapram")
    with pytest.raises(ReplayRefused):
        ReplayEngine(document).replay(datacache=WT)


def test_malformed_datacache_config_is_refused_before_models():
    document, _, _ = document_for("baseline")
    with pytest.raises(ReplayRefused):
        ReplayEngine(document).replay(
            datacache=DataCacheConfig(mode="through", line_bytes=12)
        )


# -- the oracle: replay against execution, field by field ------------------------

#: Write-through configurations the oracle replays: the default, a
#: small direct-mapped geometry that misses often, the promotion gate,
#: and the sequential cutoff (under which covered writes can charge).
ORACLE_CONFIGS = {
    "default": WT,
    "4x1x8": WT.with_geometry("4x1x8"),
    "promote2": replace(WT, promote_after=2),
    "cutoff2": replace(WT, seq_cutoff_lines=2),
}
#: FRAM read-cache geometries: the board's own, and a larger one.
ORACLE_FRAM_CACHES = {"fc-default": None, "fc-4x2x8": (4, 2, 8)}
ORACLE_PLANS = ("unified", "code_sram", "standard")
#: Difftest programs beside the quick set.
ORACLE_DIFFTEST_SEEDS = range(4)

#: Stores that walk a local array up its lines. Under a sequential
#: cutoff such a store can miss and be bypassed, charging the runtime,
#: in a segment whose covered reads all hit.
LOCAL_ARRAY = """
int main(void) {
    int buf[12];
    int i;
    unsigned acc = 0;
    for (i = 0; i < 12; i++) { buf[i] = i * 7; }
    for (i = 0; i < 12; i++) { acc = (acc + buf[i]) & 0xFFFF; }
    for (i = 0; i < 12; i++) { buf[i] = buf[i] + 1; }
    for (i = 0; i < 12; i++) { acc = (acc + buf[i]) & 0xFFFF; }
    __debug_out(acc);
    return 0;
}
"""


def oracle_source(program):
    if program == "local-array":
        return LOCAL_ARRAY
    if program.startswith("dt"):
        return generate_program(int(program[2:]), "small").render()
    return get_benchmark(program).source


_ORACLE_ENGINES = {}


def oracle_engine(program, plan):
    """One baseline capture per (program, plan) per session."""
    key = (program, plan)
    if key not in _ORACLE_ENGINES:
        document, _, _ = capture_source(
            oracle_source(program), system="baseline", plan_name=plan
        )
        _ORACLE_ENGINES[key] = ReplayEngine(document)
    return _ORACLE_ENGINES[key]


def observed(board, result, stats):
    """Every field the oracle compares, in order, as ``(name, value)``."""
    counters = board.counters
    fields = [(f"result.{k}", v) for k, v in result.as_dict().items()]
    fields += [(f"stats.{k}", v) for k, v in stats.as_dict().items()]
    fields += [
        (f"fram_cache.{k}", v) for k, v in board.bus.fram_cache.as_dict().items()
    ]
    for name in ("access_counts", "instruction_counts", "cycle_counts"):
        fields += [
            (f"counters.{name}[{slot}]", count)
            for slot, count in enumerate(getattr(counters, name))
        ]
    fields.append(("counters.stall_cycles", counters.stall_cycles))
    fields += [
        (f"memory[{address:#06x}]", byte)
        for address, byte in enumerate(board.memory.data)
    ]
    return fields


def first_difference(executed, replayed):
    """The first field where two ``observed`` lists differ, or None."""
    for (name, left), (_, right) in zip(executed, replayed):
        if left != right:
            return f"{name}: executed {left!r} != replayed {right!r}"
    if len(executed) != len(replayed):
        return f"field count: executed {len(executed)} != replayed {len(replayed)}"
    return None


def assert_replay_matches_execution(program, plan, config, fram_cache):
    """Replay the baseline capture of *program* under *config* and
    require every observed field equal to executing it."""
    source = oracle_source(program)
    try:
        system = build_datacache(source, PLANS[plan], config=config)
    except FitError:
        # The line store does not fit beside the plan's SRAM: replay
        # attaches through the same stage and must refuse alike.
        with pytest.raises(FitError):
            oracle_engine(program, plan).replay(
                datacache=config, fram_cache=fram_cache
            )
        return
    if fram_cache is not None:
        system.board.bus.fram_cache = FramReadCache(*fram_cache)
    result = system.run()
    outcome = oracle_engine(program, plan).replay(
        datacache=config, fram_cache=fram_cache
    )
    difference = first_difference(
        observed(system.board, result, system.stats),
        observed(outcome.board, outcome.result, outcome.stats),
    )
    assert difference is None, (program, plan, config, fram_cache, difference)


#: The tier-1 slice: every plan, configuration and FRAM cache at least
#: once, over two quick programs, two generated ones and the local
#: array.
ORACLE_CASES = [
    ("crc", "unified", "default", "fc-default"),
    ("crc", "unified", "4x1x8", "fc-4x2x8"),
    ("crc", "unified", "promote2", "fc-default"),
    ("crc", "unified", "cutoff2", "fc-default"),
    ("rc4", "unified", "4x1x8", "fc-default"),
    ("dt0", "unified", "cutoff2", "fc-4x2x8"),
    ("local-array", "unified", "cutoff2", "fc-default"),
    ("crc", "code_sram", "4x1x8", "fc-default"),
    ("dt1", "code_sram", "promote2", "fc-4x2x8"),
    ("rc4", "standard", "default", "fc-default"),
]


@pytest.mark.parametrize("program,plan,config,fram_cache", ORACLE_CASES)
def test_replay_matches_execution(program, plan, config, fram_cache):
    assert_replay_matches_execution(
        program, plan, ORACLE_CONFIGS[config], ORACLE_FRAM_CACHES[fram_cache]
    )


@pytest.mark.slow
@pytest.mark.parametrize("plan", ORACLE_PLANS)
@pytest.mark.parametrize(
    "program",
    [*QUICK_NAMES, "local-array", *(f"dt{seed}" for seed in ORACLE_DIFFTEST_SEEDS)],
)
def test_replay_matches_execution_full_matrix(program, plan):
    for config in ORACLE_CONFIGS.values():
        for fram_cache in ORACLE_FRAM_CACHES.values():
            assert_replay_matches_execution(program, plan, config, fram_cache)


#: ``i++`` on the stack reads and writes one word in one instruction.
#: With one 8-byte line, the table read before it always evicts the
#: stack's line, so that read misses and the fill's charged
#: instructions run between the read and the write.
MISS_MID_INSTRUCTION = """
int table[16];

int main(void) {
    int i;
    unsigned acc = 0;
    for (i = 0; i < 16; i++) {
        acc = (acc + table[i] + i) & 0xFFFF;
    }
    __debug_out(acc);
    return 0;
}
"""


def test_covered_read_miss_mid_instruction_walks_live(monkeypatch):
    config = DataCacheConfig(
        mode="through", cleaning="none", sets=1, ways=1, line_bytes=8
    )
    walked = []
    live = engine_module._walk_live

    def spy(bus, ops, fram_fetch):
        walked.append(ops)
        live(bus, ops, fram_fetch)

    monkeypatch.setattr(engine_module, "_walk_live", spy)
    document, _, _ = capture_source(MISS_MID_INSTRUCTION, system="baseline")
    outcome = ReplayEngine(document).replay(datacache=config)
    system = build_datacache(MISS_MID_INSTRUCTION, PLANS["unified"], config=config)
    result = system.run()
    difference = first_difference(
        observed(system.board, result, system.stats),
        observed(outcome.board, outcome.result, outcome.stats),
    )
    assert difference is None, difference
    assert outcome.stats.read_fills >= 16

    def read_then_write(ops):
        """A record whose covered read is followed by a covered write
        to the same word."""
        read = None
        for op, addr, _, _ in ops:
            if op == engine_module._FETCH:
                read = None
            elif op == engine_module._RD_COVERED:
                read = addr
            elif op == engine_module._WR_COVERED_W and addr == read:
                return True
        return False

    assert any(read_then_write(ops) for ops in walked)
