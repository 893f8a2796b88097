"""Power-failure fuses: stop a run at an arbitrary accounted instant.

Intermittent (harvested-power) execution means the machine can die at
*any* point -- including in the middle of the SwapRAM miss handler's
``memcpy`` into the SRAM cache. Host-side Python cannot be interrupted
between two arbitrary bytecodes, but every modelled cost in this
simulator flows through :class:`~repro.machine.trace.AccessCounters`:
instruction fetches, data reads/writes, charged runtime instructions.
:class:`FusedAccessCounters` therefore *is* the power supply: arm a
cycle or energy fuse and the first accounted event at or past the
budget raises :class:`PowerFailure` from inside whatever was running --
application code, the miss handler, or the copy loop itself (the
raise's :class:`~repro.machine.trace.Attribution` says which).

The same mechanism doubles as a plain cycle watchdog for the CLI and
the experiments runner: arm ``cycle_fuse`` and treat the raise as a
DNF.

Because a blown fuse aborts *before* the triggering access mutates
memory (counters are recorded first on every bus path), a power failure
never tears a single bus write -- word writes are atomic, matching FRAM
hardware, while multi-word operations (the cache-fill memcpy, metadata
table updates) tear exactly as on the real platform.
"""

import random

from repro.machine.energy import EnergyModel
from repro.machine.memory import RegionKind
from repro.machine.observe import install
from repro.machine.trace import WRITE, AccessCounters


class PowerFailure(Exception):
    """An armed budget fuse blew mid-execution.

    Carries where the machine died: the total cycle count at the
    instant of failure, the attribution of the access that tripped the
    fuse (``app``/``runtime``/``memcpy``/``startup``), and which fuse
    kind blew (``cycles`` or ``energy``).
    """

    def __init__(self, message, cycle=0, attribution=None, kind="cycles"):
        super().__init__(message)
        self.cycle = cycle
        self.attribution = attribution
        self.kind = kind


class FusedAccessCounters(AccessCounters):
    """Access counters with optional cycle and energy fuses.

    A fuse is an *absolute* threshold against the run-so-far totals:
    ``cycle_fuse`` against ``total_cycles``, ``energy_fuse`` (nJ)
    against the same linear model :class:`EnergyModel` applies after
    the fact. Access energy is mirrored incrementally in ``access_nj``
    so the per-event check is O(attributions), not O(counter keys).

    A fuse disarms itself when it blows, so unwinding and post-mortem
    inspection never re-raise. Fuses are harness state, not machine
    state: ``snapshot()``/``restore()`` round-trip the tallies (and the
    energy mirror) but leave the fuse settings alone.
    """

    bus_tallies = False

    def __init__(self, energy_model=None):
        super().__init__()
        self.energy_model = energy_model or EnergyModel()
        self.cycle_fuse = None
        self.energy_fuse = None
        self.access_nj = 0.0

    @property
    def energy_nj(self):
        """Current total energy under the attached model."""
        return (
            self.total_cycles * self.energy_model.core_nj_per_cycle
            + self.access_nj
        )

    def disarm(self):
        self.cycle_fuse = None
        self.energy_fuse = None
        return self

    # -- recording (hot path) -------------------------------------------------

    def record_fetch(self, attribution, region_kind, words):
        super().record_fetch(attribution, region_kind, words)
        if region_kind is RegionKind.FRAM:
            self.access_nj += words * self.energy_model.fram_read_nj
        elif region_kind is RegionKind.SRAM:
            self.access_nj += words * self.energy_model.sram_access_nj
        if self.cycle_fuse is not None or self.energy_fuse is not None:
            self._check_fuses(attribution)

    def record_data(self, attribution, region_kind, access_type, words=1):
        super().record_data(attribution, region_kind, access_type, words)
        if region_kind is RegionKind.FRAM:
            if access_type == WRITE:
                self.access_nj += words * self.energy_model.fram_write_nj
            else:
                self.access_nj += words * self.energy_model.fram_read_nj
        elif region_kind is RegionKind.SRAM:
            self.access_nj += words * self.energy_model.sram_access_nj
        if self.cycle_fuse is not None or self.energy_fuse is not None:
            self._check_fuses(attribution)

    def record_instruction(self, attribution, region_kind, cycles):
        super().record_instruction(attribution, region_kind, cycles)
        if self.cycle_fuse is not None or self.energy_fuse is not None:
            self._check_fuses(attribution)

    def _check_fuses(self, attribution):
        if self.cycle_fuse is not None and self.total_cycles >= self.cycle_fuse:
            cycle = self.total_cycles
            self.disarm()
            raise PowerFailure(
                f"cycle fuse blew at cycle {cycle}",
                cycle=cycle,
                attribution=attribution,
                kind="cycles",
            )
        if self.energy_fuse is not None and self.energy_nj >= self.energy_fuse:
            cycle = self.total_cycles
            energy = self.energy_nj
            self.disarm()
            raise PowerFailure(
                f"energy fuse blew at {energy:.1f} nJ (cycle {cycle})",
                cycle=cycle,
                attribution=attribution,
                kind="energy",
            )

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self):
        copy = super().snapshot()
        copy.access_nj = self.access_nj
        return copy

    def restore(self, snapshot):
        """Restore tallies and mirror; plain counters (which keep no
        mirror) get theirs from the attached model."""
        super().restore(snapshot)
        mirror = getattr(snapshot, "access_nj", None)
        if mirror is None:
            mirror = self.energy_model.access_energy_nj(snapshot)
        self.access_nj = mirror
        return self


def install_fused_counters(board, energy_model=None):
    """Swap a board's counters for fused ones, preserving any tallies.

    Works on an already-built board (the CLI watchdog, the experiments
    runner): the replacement is wired into both the board and its bus,
    and any counts accumulated so far carry over, as do the board's
    observers. Returns the fused counters; arm
    ``cycle_fuse``/``energy_fuse`` on them.
    """
    if isinstance(board.counters, FusedAccessCounters):
        return board.counters
    fused = FusedAccessCounters(energy_model=energy_model)
    fused.restore(board.counters)
    board.counters = fused
    board.bus.counters = fused
    install(board)
    return fused


def scrambled_bytes(seed, length):
    """Deterministic power-up garbage for a volatile memory region.

    Real SRAM wakes to biased junk, not zeros; seeding from a string key
    keeps every reboot bit-reproducible under one ``--seed`` (Python
    hashes string seeds with SHA-512, stable across interpreter runs).
    """
    return random.Random(f"sram-scramble:{seed}").randbytes(length)
