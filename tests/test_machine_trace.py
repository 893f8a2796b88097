"""AccessCounters: category bookkeeping used by every experiment."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import fr2355_board, install_fused_counters
from repro.machine.energy import EnergyModel
from repro.machine.memory import RegionKind
from repro.machine.trace import (
    FETCH,
    READ,
    WRITE,
    AccessCounters,
    Attribution,
)


def make_counters():
    counters = AccessCounters()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 2)
    counters.record_fetch(Attribution.APP, RegionKind.SRAM, 3)
    counters.record_fetch(Attribution.RUNTIME, RegionKind.FRAM, 5)
    counters.record_data(Attribution.APP, RegionKind.FRAM, READ)
    counters.record_data(Attribution.APP, RegionKind.FRAM, WRITE)
    counters.record_data(Attribution.MEMCPY, RegionKind.SRAM, WRITE, words=4)
    counters.record_instruction(Attribution.APP, RegionKind.FRAM, 3)
    counters.record_instruction(Attribution.APP, RegionKind.SRAM, 2)
    counters.record_instruction(Attribution.RUNTIME, RegionKind.FRAM, 6)
    counters.record_instruction(Attribution.MEMCPY, RegionKind.FRAM, 4)
    counters.stall_cycles = 7
    return counters


def test_region_totals():
    counters = make_counters()
    assert counters.fram_accesses == 2 + 5 + 1 + 1
    assert counters.sram_accesses == 3 + 4


def test_code_data_split_and_ratio():
    counters = make_counters()
    assert counters.code_accesses == 10
    assert counters.data_accesses == 6
    assert abs(counters.code_data_ratio - 10 / 6) < 1e-9


def test_ratio_with_no_data_accesses_is_infinite():
    counters = AccessCounters()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 1)
    assert counters.code_data_ratio == float("inf")


def test_cycle_totals():
    counters = make_counters()
    assert counters.unstalled_cycles == 3 + 2 + 6 + 4
    assert counters.total_cycles == 15 + 7


def test_instruction_breakdown_categories():
    counters = make_counters()
    breakdown = counters.instructions_by_source()
    assert breakdown == {
        "app_fram": 1,
        "app_sram": 1,
        "handler": 1,
        "memcpy": 1,
    }


def test_startup_folds_into_app_fram():
    counters = AccessCounters()
    counters.record_instruction(Attribution.STARTUP, RegionKind.FRAM, 2)
    assert counters.instructions_by_source()["app_fram"] == 1


def test_snapshot_is_independent():
    counters = make_counters()
    snapshot = counters.snapshot()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 100)
    counters.stall_cycles += 10
    assert snapshot.fram_accesses == 9
    assert snapshot.stall_cycles == 7
    assert counters.fram_accesses == 109


# -- flat slots vs the tuple-keyed reference -------------------------------------


class ReferenceTally:
    """The tuple-keyed ``Counter`` bookkeeping the flat slots replace."""

    def __init__(self):
        self.accesses = Counter()
        self.instructions = Counter()
        self.cycles = Counter()
        self.stall_cycles = 0

    def record_fetch(self, attribution, region_kind, words):
        self.accesses[(attribution, region_kind, FETCH)] += words

    def record_data(self, attribution, region_kind, access_type, words=1):
        self.accesses[(attribution, region_kind, access_type)] += words

    def record_instruction(self, attribution, region_kind, cycles):
        self.instructions[(attribution, region_kind)] += 1
        self.cycles[attribution] += cycles

    @property
    def total_cycles(self):
        return sum(self.cycles.values()) + self.stall_cycles

    def aggregates(self):
        def accesses(keep):
            return sum(
                count for key, count in self.accesses.items() if keep(*key)
            )

        code = accesses(lambda attribution, kind, access_type: access_type == FETCH)
        data = accesses(lambda attribution, kind, access_type: access_type != FETCH)
        breakdown = {"app_fram": 0, "app_sram": 0, "handler": 0, "memcpy": 0}
        for (attribution, kind), count in self.instructions.items():
            if attribution is Attribution.RUNTIME:
                breakdown["handler"] += count
            elif attribution is Attribution.MEMCPY:
                breakdown["memcpy"] += count
            elif kind is RegionKind.SRAM:
                breakdown["app_sram"] += count
            else:
                breakdown["app_fram"] += count
        return {
            "fram_accesses": accesses(lambda a, kind, t: kind is RegionKind.FRAM),
            "sram_accesses": accesses(lambda a, kind, t: kind is RegionKind.SRAM),
            "code_accesses": code,
            "data_accesses": data,
            "code_data_ratio": code / data if data else float("inf"),
            "total_instructions": sum(self.instructions.values()),
            "unstalled_cycles": sum(self.cycles.values()),
            "total_cycles": self.total_cycles,
            "instructions_by_source": breakdown,
        }


def counters_aggregates(counters):
    found = {
        name: getattr(counters, name)
        for name in ReferenceTally().aggregates()
        if name != "instructions_by_source"
    }
    found["instructions_by_source"] = counters.instructions_by_source()
    return found


_ATTRIBUTIONS = st.sampled_from(list(Attribution))
_REGIONS = st.sampled_from(list(RegionKind))
_RECORDS = st.lists(
    st.one_of(
        st.tuples(st.just("fetch"), _ATTRIBUTIONS, _REGIONS, st.integers(0, 8)),
        st.tuples(
            st.just("data"),
            _ATTRIBUTIONS,
            _REGIONS,
            st.sampled_from((READ, WRITE)),
            st.integers(0, 8),
        ),
        st.tuples(st.just("instruction"), _ATTRIBUTIONS, _REGIONS, st.integers(0, 12)),
    ),
    max_size=60,
)


def apply(records, *tallies):
    for kind, *args in records:
        for tally in tallies:
            getattr(tally, "record_" + kind)(*args)


def assert_views_match(counters, reference):
    for name in ("accesses", "instructions", "cycles"):
        view, expected = getattr(counters, name), getattr(reference, name)
        assert dict(view) == {key: count for key, count in expected.items() if count}
        for key, count in expected.items():
            assert view[key] == count


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS, stalls=st.integers(0, 50))
def test_flat_slots_match_tuple_keyed_reference(records, stalls):
    counters, reference = AccessCounters(), ReferenceTally()
    apply(records, counters, reference)
    counters.stall_cycles = reference.stall_cycles = stalls
    assert_views_match(counters, reference)
    assert counters_aggregates(counters) == reference.aggregates()
    model = EnergyModel()
    assert model.energy_nj(counters) == model.energy_nj(reference)  # bit-identical


@settings(max_examples=50, deadline=None)
@given(before=_RECORDS, after=_RECORDS)
def test_snapshot_restore_and_fused_carry_over(before, after):
    counters, reference = AccessCounters(), ReferenceTally()
    apply(before, counters, reference)
    def tallies():
        return (
            counters.access_counts,
            counters.instruction_counts,
            counters.cycle_counts,
        )

    held = tallies()
    snapshot = counters.snapshot()
    apply(after, counters)
    counters.restore(snapshot)
    # In place: holders of the tally lists stay live across a restore.
    assert all(old is new for old, new in zip(held, tallies()))
    assert_views_match(counters, reference)

    board = fr2355_board()
    board.counters.restore(counters)
    fused = install_fused_counters(board)
    assert board.bus.counters is fused
    assert_views_match(fused, reference)
    model = fused.energy_model
    assert fused.access_nj == model.access_energy_nj(reference)
    apply(after, fused, reference)
    assert_views_match(fused, reference)
    assert fused.access_nj == pytest.approx(model.access_energy_nj(reference), rel=1e-9)
    assert fused.energy_nj == pytest.approx(model.energy_nj(reference), rel=1e-9)


def test_views_are_read_only():
    """A writer still adding into a view fails loudly, not silently."""
    counters = make_counters()
    with pytest.raises(TypeError):
        counters.accesses[(Attribution.APP, RegionKind.FRAM, READ)] += 1
    with pytest.raises(TypeError):
        counters.instructions[(Attribution.APP, RegionKind.FRAM)] += 1
    with pytest.raises(TypeError):
        counters.cycles[Attribution.APP] += 1
    assert counters.accesses[(Attribution.APP, RegionKind.FRAM, READ)] == 1
