"""Runtime cost model and charger."""

from repro.core.costs import CostCharger, RuntimeCostModel
from repro.machine import Bus, Memory, fr2355_memory_map
from repro.machine.memory import RegionKind
from repro.machine.trace import Attribution


def make_bus():
    return Bus(Memory(), fr2355_memory_map(), frequency_mhz=24)


def test_handler_size_grows_with_relocations():
    model = RuntimeCostModel()
    assert model.handler_size(0) == model.handler_base_bytes
    assert (
        model.handler_size(10)
        == model.handler_base_bytes + 10 * model.handler_bytes_per_reloc
    )
    # Calibration: typical reloc counts land inside the paper's reported
    # 972-1844 byte handler range.
    assert 900 <= model.handler_size(6) <= 1844


def test_charge_records_instructions_and_fetches():
    bus = make_bus()
    charger = CostCharger(bus, 0xA000, 256, cycles_per_instruction=3)
    charger.charge(10)
    counters = bus.counters
    assert counters.total_instructions == 10
    assert counters.cycles[Attribution.RUNTIME] == 30
    # Alternating 1/2-word instructions: 15 words fetched.
    assert counters.fram_accesses == 15


def test_charge_attribution_override():
    bus = make_bus()
    charger = CostCharger(bus, 0xA000, 256, cycles_per_instruction=3)
    charger.charge(4, Attribution.MEMCPY)
    assert bus.counters.instructions[(Attribution.MEMCPY, RegionKind.FRAM)] == 4


def test_fetch_addresses_stay_inside_area():
    bus = make_bus()
    area_bytes = 32
    charger = CostCharger(bus, 0xA000, area_bytes, cycles_per_instruction=1)
    charger.charge(200)
    from repro.machine.trace import FETCH

    fetched = [
        (key, count)
        for key, count in bus.counters.accesses.items()
        if key[2] == FETCH
    ]
    assert fetched  # something was fetched
    # Charged stalls exist (FRAM wait states at 24 MHz) but are bounded:
    # a 32-byte loop fits the hardware cache, so most fetches hit.
    total_words = sum(count for _key, count in fetched)
    assert bus.counters.stall_cycles < total_words


def test_begin_invocation_resets_locality():
    bus = make_bus()
    charger = CostCharger(bus, 0xA000, 1024, cycles_per_instruction=1)
    # A short path (~24 bytes) fits the 32-byte hardware cache.
    charger.charge(8)
    first_stalls = bus.counters.stall_cycles
    assert first_stalls > 0
    charger.begin_invocation()
    charger.charge(8)  # same addresses again: wait-state misses vanish,
    # leaving only the per-instruction contention penalty.
    assert bus.counters.stall_cycles - first_stalls < first_stalls


def test_swapram_system_size_report():
    from repro.core import build_swapram
    from repro.toolchain import PLANS

    source = """
    int helper(int x) { return x + 1; }
    int main(void) { __debug_out(helper(1)); return 0; }
    """
    system = build_swapram(source, PLANS["unified"])
    report = system.size_report()
    assert set(report) == {"application", "runtime", "metadata", "const_data"}
    assert report["runtime"] == system.meta.runtime_bytes
    assert report["metadata"] > 0
    assert report["application"] > 0


def _charged_state(bus, charger):
    counters = bus.counters
    cache = bus.fram_cache
    return {
        "accesses": list(counters.access_counts),
        "instructions": list(counters.instruction_counts),
        "cycles": list(counters.cycle_counts),
        "stalls": counters.stall_cycles,
        "cache": cache.as_dict(),
        "lines": [list(ways) for ways in cache._lines],
        "touches": bus._fram_touches,
        "cursor": charger._cursor,
        "attribution": bus.attribution,
    }


def test_batched_charge_matches_the_instruction_loop():
    """The batched charge (plain counters, nothing subscribed) against
    the per-instruction loop (forced by a subscriber that handles
    ``on_retire`` and does nothing), over random areas, cursors, counts,
    attributions, prior FRAM touch counts and FRAM-cache geometries and
    contents."""
    import random

    from repro.machine import FramReadCache, fr2355_board
    from repro.machine.observe import observe

    class RetireOnly:
        def on_retire(self, attribution, region_kind, cycles):
            pass

    rng = random.Random(1234)
    attributions = list(Attribution)
    for case in range(300):
        area_bytes = rng.choice([1, 2, 4, 6, 8, 14, 32, 64, rng.randrange(2, 400)])
        area_base = rng.choice([0x2000, 0x8000, 0xA000]) + 2 * rng.randrange(64)
        geometry = (rng.choice([1, 2, 4]), rng.choice([1, 2, 4]), rng.choice([2, 4, 8]))
        warm = [rng.randrange(0x8000, 0xC000) for _ in range(rng.randrange(8))]
        cursor = rng.randrange(200)
        touches = rng.randrange(4)
        calls = [
            (rng.randrange(40), rng.choice(attributions))
            for _ in range(rng.randrange(1, 4))
        ]
        states = []
        for looped in (False, True):
            board = fr2355_board()
            bus = board.bus
            bus.fram_cache = FramReadCache(*geometry)
            for address in warm:
                bus.fram_cache.access(address)
            if looped:
                observe(board, RetireOnly())
            charger = CostCharger(bus, area_base, area_bytes, cycles_per_instruction=3)
            charger._cursor = cursor
            bus._fram_touches = touches
            for count, attribution in calls:
                charger.charge(count, attribution)
            states.append(_charged_state(bus, charger))
        batched, looped = states
        assert batched == looped, (case, area_bytes, area_base, geometry, calls)
