"""Power failures, snapshot/restore, and power cycling."""

import pytest

from repro.machine import (
    Attribution,
    FusedAccessCounters,
    PowerFailure,
    RegionKind,
    install_fused_counters,
    scrambled_bytes,
)
from repro.obs.timeline import Timeline
from repro.toolchain import PLANS, build_baseline

PROGRAM = """
int work[16];
int main(void) {
    int acc = 0;
    for (int i = 0; i < 16; i++) work[i] = i * 5;
    for (int pass = 0; pass < 4; pass++) {
        for (int i = 0; i < 16; i++) acc += work[i];
    }
    __debug_out(acc & 0xFFFF);
    return 0;
}
"""


def build():
    return build_baseline(PROGRAM, PLANS["unified"])


def fused_build():
    return build_baseline(
        PROGRAM, PLANS["unified"], counters=FusedAccessCounters()
    )


# -- scrambled_bytes ---------------------------------------------------------------


def test_scrambled_bytes_deterministic_and_not_zero():
    a = scrambled_bytes("seed:sram", 256)
    b = scrambled_bytes("seed:sram", 256)
    assert a == b
    assert a != bytes(256)
    assert scrambled_bytes("other:sram", 256) != a


# -- fuses -------------------------------------------------------------------------


def test_cycle_fuse_raises_power_failure_with_context():
    board = fused_build()
    board.counters.cycle_fuse = 400
    with pytest.raises(PowerFailure) as info:
        board.run()
    failure = info.value
    assert failure.kind == "cycles"
    assert failure.cycle >= 400
    assert failure.attribution is Attribution.APP
    # The fuse disarmed itself: the machine can keep running afterwards.
    assert board.counters.cycle_fuse is None
    result = board.run()
    assert result.debug_words  # ran to the halt port


def test_energy_fuse_raises_power_failure():
    board = fused_build()
    board.counters.energy_fuse = 200.0  # nJ; a few hundred cycles in
    with pytest.raises(PowerFailure) as info:
        board.run()
    assert info.value.kind == "energy"
    assert board.counters.energy_fuse is None


def test_energy_mirror_matches_post_hoc_model():
    board = fused_build()
    board.run()
    counters = board.counters
    model = counters.energy_model
    assert counters.access_nj == pytest.approx(
        model.access_energy_nj(counters), rel=1e-9
    )
    assert counters.energy_nj == pytest.approx(
        model.energy_nj(counters), rel=1e-9
    )


def test_bus_tally_matches_fused_record_calls():
    # The bus adds plain counters' accesses itself and calls the fused
    # counters' record_fetch/record_data; both must tally the same run
    # identically, runtime charges and memcpy included.
    from repro.core import build_swapram

    plain = build_swapram(PROGRAM, PLANS["unified"], cache_limit=0x40)
    fused = build_swapram(PROGRAM, PLANS["unified"], cache_limit=0x40)
    install_fused_counters(fused.board)
    assert plain.board.counters.bus_tallies
    assert not fused.board.counters.bus_tallies
    assert plain.run().as_dict() == fused.run().as_dict()
    for name in ("access_counts", "instruction_counts", "cycle_counts"):
        assert getattr(plain.board.counters, name) == getattr(
            fused.board.counters, name
        )
    assert plain.board.counters.stall_cycles == fused.board.counters.stall_cycles
    assert plain.stats.misses > 0


def test_install_fused_counters_preserves_tallies():
    board = build()
    board.run()
    before = board.counters.total_cycles
    fused = install_fused_counters(board)
    assert isinstance(fused, FusedAccessCounters)
    assert board.counters is fused and board.bus.counters is fused
    assert fused.total_cycles == before
    # Idempotent: installing again returns the same object.
    assert install_fused_counters(board) is fused


# -- snapshot / restore ------------------------------------------------------------


def test_snapshot_restore_round_trip():
    board = fused_build()
    board.counters.cycle_fuse = 500
    with pytest.raises(PowerFailure):
        board.run()
    snap = board.snapshot()
    mid_cycles = board.counters.total_cycles
    mid_regs = list(board.cpu.regs)
    mid_memory = board.memory.snapshot()

    board.run()  # run to completion, mutating everything
    assert board.counters.total_cycles > mid_cycles

    board.restore(snap)
    assert board.counters.total_cycles == mid_cycles
    assert list(board.cpu.regs) == mid_regs
    assert board.memory.snapshot() == mid_memory
    assert not board.bus.halted

    # The restored machine re-runs to the same outcome.
    result = board.run()
    assert result.debug_words == [(sum(i * 5 for i in range(16)) * 4) & 0xFFFF]


def test_restore_keeps_observers_attached():
    """Satellite: a restore must not orphan timeline/metrics holders."""
    board = fused_build()
    timeline = Timeline(board.counters)
    snap = board.snapshot()
    board.run()
    board.restore(snap)
    # Same counters object, so the timeline still stamps from it.
    assert timeline.counters is board.counters
    assert timeline.cycle == board.counters.total_cycles == 0


# -- power_cycle -------------------------------------------------------------------


def test_power_cycle_requires_loaded_image():
    from repro.machine import fr2355_board

    with pytest.raises(RuntimeError):
        fr2355_board().power_cycle()


def test_power_cycle_persists_fram_and_scrambles_sram():
    board = fused_build()
    board.counters.cycle_fuse = 500
    with pytest.raises(PowerFailure):
        board.run()

    fram = [r for r in board.memory_map.regions if r.kind is RegionKind.FRAM]
    sram = [r for r in board.memory_map.regions if r.kind is RegionKind.SRAM]
    fram_before = [board.memory.read_bytes(r.start, r.size) for r in fram]
    sram_before = [board.memory.read_bytes(r.start, r.size) for r in sram]

    board.power_cycle(seed="t")
    fram_after = [board.memory.read_bytes(r.start, r.size) for r in fram]
    sram_after = [board.memory.read_bytes(r.start, r.size) for r in sram]

    assert fram_after == fram_before  # NVRAM survives
    assert sram_after != sram_before  # volatile memory does not
    assert sram_after == [
        scrambled_bytes(f"t:{r.name}", r.size) for r in sram
    ]  # ...deterministically
    assert board.cpu.regs[0] == board.image.entry  # PC back at the vector
    assert not board.bus.halted


def test_power_cycle_accounting_continues():
    """Satellite: cycles are never double-counted across a power cycle.

    The measurement rig (counters, debug log) never loses power: a
    fault run's totals are the sum of its boot spans, each span picking
    up exactly where the previous one died.
    """
    board = fused_build()
    timeline = Timeline(board.counters)
    board.counters.cycle_fuse = 500
    with pytest.raises(PowerFailure):
        board.run()
    died_at = board.counters.total_cycles
    words_before = len(board.bus.debug_words)

    board.power_cycle(seed=1)
    assert board.counters.total_cycles == died_at  # the cycle is free
    assert timeline.counters is board.counters
    assert timeline.cycle == died_at

    result = board.run()
    # Second boot's span strictly extends the first; debug log appends.
    assert result.total_cycles > died_at
    assert result.debug_words[words_before:] == [
        (sum(i * 5 for i in range(16)) * 4) & 0xFFFF
    ]


def test_power_cycle_reboot_reproduces_program():
    board = build()
    first = board.run()
    board.power_cycle(seed=2)
    second = board.run()
    # Idempotent program: the rebooted run appends an identical answer.
    assert second.debug_words == first.debug_words * 2
