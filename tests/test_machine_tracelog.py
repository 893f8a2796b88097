"""Access trace logging."""

from collections import deque

from repro.bench import get_benchmark
from repro.core import build_swapram
from repro.machine.memory import RegionKind
from repro.machine.observe import observe
from repro.machine.trace import FETCH, READ, WRITE
from repro.machine.tracelog import TraceEvent, TraceLog
from repro.toolchain import PLANS, build_baseline

SRC = """
int data[4];
int put(int index, int value) { data[index] = value; return value; }
int main(void) {
    for (int i = 0; i < 4; i++) put(i, i);
    __debug_out(data[3]);
    return 0;
}
"""


def test_trace_records_accesses():
    board = build_baseline(SRC, PLANS["unified"])
    with TraceLog(board.bus, capacity=100000) as log:
        board.run()
    assert log.events
    kinds = {event.access for event in log.events}
    assert kinds == {"fetch", "read", "write"}
    # Unified model: everything except MMIO is FRAM.
    assert set(log.by_region()) <= {"fram", "mmio"}


def test_trace_count_matches_counters():
    board = build_baseline(SRC, PLANS["unified"])
    with TraceLog(board.bus, capacity=1_000_000) as log:
        result = board.run()
    assert len(log.events) == result.code_accesses + result.data_accesses


def test_detach_stops_logging():
    board = build_baseline(SRC, PLANS["unified"])
    log = TraceLog(board.bus).attach()
    board.cpu.step()
    seen = len(log.events)
    log.detach()
    board.run()
    assert len(log.events) == seen


def test_ring_capacity_bounds_memory():
    board = build_baseline(SRC, PLANS["unified"])
    with TraceLog(board.bus, capacity=32) as log:
        board.run()
    assert len(log.events) == 32
    assert log.sequence > 32  # kept counting past the ring


def test_filters():
    board = build_baseline(SRC, PLANS["unified"])
    data_base = board.linked.image.symbols["data"]
    with TraceLog(
        board.bus,
        kinds={WRITE},
        address_range=(data_base, data_base + 8),
    ) as log:
        board.run()
    assert len(log.events) == 4  # exactly the four array stores
    assert all(event.access == "write" for event in log.events)


def test_swapram_copies_visible_in_trace():
    system = build_swapram(SRC, PLANS["unified"])
    with TraceLog(
        system.board.bus, capacity=1_000_000, regions={RegionKind.SRAM}
    ) as log:
        system.run()
    writes = [event for event in log.events if event.access == "write"]
    memcpy_writes = [event for event in writes if event.attribution == "memcpy"]
    assert memcpy_writes, "function copies must appear as SRAM writes"
    fetches = [event for event in log.events if event.access == "fetch"]
    assert fetches, "and the copies must then be executed"


def test_dump_formatting():
    board = build_baseline(SRC, PLANS["unified"])
    with TraceLog(board.bus, capacity=10) as log:
        board.run()
    text = log.dump(limit=5)
    assert len(text.splitlines()) == 5
    assert "0x" in text


# -- the lazy ring against an eager recorder ---------------------------------------


class EagerLog:
    """The reference: builds each kept access's :class:`TraceEvent` when
    it happens, filtering in the same order as :class:`TraceLog`."""

    def __init__(self, bus, capacity, regions=None, kinds=None, address_range=None):
        self.bus = bus
        self.events = deque(maxlen=capacity)
        self.regions = regions
        self.kinds = kinds
        self.address_range = address_range
        self.sequence = 0

    def on_fetch(self, address, words):
        for index in range(words):
            self._record(FETCH, address + 2 * index)

    def on_read(self, address, byte):
        self._record(READ, address)

    def on_write(self, address, value, byte):
        self._record(WRITE, address)

    def _record(self, access, address):
        self.sequence += 1
        if self.kinds and access not in self.kinds:
            return
        address &= 0xFFFF
        if self.address_range and not (
            self.address_range[0] <= address < self.address_range[1]
        ):
            return
        region = self.bus.memory_map.kind_at(address)
        if self.regions and region not in self.regions:
            return
        self.events.append(
            TraceEvent(
                self.sequence,
                self.bus.attribution.value,
                access,
                address,
                region.value,
            )
        )

    def dump(self):
        return "\n".join(str(event) for event in self.events)


def test_lazy_ring_matches_an_eager_recorder():
    system = build_swapram(get_benchmark("crc").source, PLANS["unified"])
    bus = system.board.bus
    cache = (system.runtime.policy.base, system.runtime.policy.end)
    filters = {
        "none, wrapping": {"capacity": 20_000},
        "kinds": {"capacity": 50_000, "kinds": {READ, WRITE}},
        "regions": {"capacity": 50_000, "regions": {RegionKind.SRAM}},
        "address_range": {"capacity": 50_000, "address_range": cache},
        "all, wrapping": {
            "capacity": 333,
            "kinds": {FETCH, WRITE},
            "regions": {RegionKind.SRAM},
            "address_range": cache,
        },
    }
    pairs = {
        name: (
            TraceLog(bus, **knobs).attach(),
            observe(bus.board, EagerLog(bus, **knobs)),
        )
        for name, knobs in filters.items()
    }
    system.run()
    for name, (log, eager) in pairs.items():
        log.detach()
        assert log.sequence == eager.sequence > 300_000, name
        assert log.events == list(eager.events), name
        assert log.dump() == eager.dump(), name
        assert 0 < len(log.events) <= filters[name]["capacity"], name
    assert len(pairs["none, wrapping"][0].events) == 20_000
