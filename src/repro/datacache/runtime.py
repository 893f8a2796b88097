"""The data-cache runtime: executes model decisions as real bus traffic.

Attached to a :class:`~repro.machine.bus.Bus` as ``bus.data_cache``,
the runtime intercepts *application* data accesses to FRAM addresses
inside its window:

* **hit** -- the access is served from the line's SRAM slot: one SRAM
  access under the application's own attribution, no wait states, no
  extra instructions (the lookup is compiler-assisted remapping, see
  :class:`~repro.core.costs.DataCacheCostModel`).
* **fill** -- the miss handler runs under ``RUNTIME`` attribution:
  victim writeback (if dirty) and line fill are word-by-word copies
  through the bus under ``MEMCPY``, charged like SwapRAM's copy loop,
  then the access is served from SRAM.
* **bypass** -- sequential-cutoff and promotion-gate rejections take
  the plain FRAM path (:meth:`~repro.machine.bus.Bus.fram_read_direct`)
  so a bypassed access costs exactly the uncached access. Write-through
  write misses are also bypasses (no-allocate) and are charged nothing:
  in that mode the compiler knows stores never allocate.

Write-through write hits pay the FRAM store (the application's own,
with wait states) plus a runtime SRAM store keeping the copy coherent;
write-back write hits are a single SRAM store and mark the line dirty.
Dirty lines are written back on eviction, when the cleaning policy says
so, and on a clean shutdown (the halt-port flush). A power failure with
dirty lines outstanding silently loses those writes -- the runtime
records exactly which FRAM bytes were lost so
:func:`repro.faults.consistency.audit_system` can name them.
"""

from repro.core.costs import CostCharger
from repro.core.policy import make_cleaning
from repro.datacache.cache import (
    BYPASS,
    NO_ALLOCATE,
    WB_CLEAN,
    WB_FLUSH,
    DataCacheModel,
    DataCacheStats,
)
from repro.machine.memory import RegionKind
from repro.machine.trace import READ, WRITE, Attribution, access_slot

# The ``access_counts`` slots a hit tallies into when the counters take
# the bus's flat tallies.
_APP_SRAM_READ = access_slot(Attribution.APP, RegionKind.SRAM, READ)
_APP_SRAM_WRITE = access_slot(Attribution.APP, RegionKind.SRAM, WRITE)
_RUNTIME_SRAM_WRITE = access_slot(Attribution.RUNTIME, RegionKind.SRAM, WRITE)


class DataCacheRuntime:
    """Host-side data-cache handler operating on one simulated board."""

    def __init__(
        self,
        board,
        config,
        window,
        line_base,
        handler_base,
        cost_model,
    ):
        self.board = board
        self.bus = board.bus
        self.costs = cost_model
        self.model = DataCacheModel(config, base=line_base)
        self.cleaning = make_cleaning(config.cleaning)
        # Accesses between cleaning-policy consultations; 0 never
        # consults it (write-through leaves no dirty lines to clean).
        self._clean_interval = self.cleaning.interval if config.mode == "back" else 0
        self._write_through = config.mode == "through"
        self._offset_mask = config.line_bytes - 1
        #: Per-power-cycle history of lost dirty lines, for the
        #: crash-consistency audit. Host-side accounting: survives
        #: power cycles like every other counter.
        self.lost_lines = []
        #: What the most recent power cycle dropped (possibly nothing);
        #: the post-reboot audit reports exactly this boot's losses.
        self.last_drop = []

        self.handler_base = handler_base
        self.handler_charger = CostCharger(
            self.bus,
            handler_base,
            cost_model.handler_bytes,
            cost_model.cycles_per_instruction,
        )
        self.memcpy_charger = CostCharger(
            self.bus,
            handler_base + cost_model.handler_bytes,
            cost_model.memcpy_bytes,
            cost_model.cycles_per_instruction,
        )

        #: One byte per address, nonzero inside the window: the bus
        #: tests it before handing an application access over. A
        #: write-back cache writes whole lines back, so it covers the
        #: window's edge lines whole: a store to their other bytes would
        #: go to FRAM and be undone by the line's next writeback.
        self.covered = bytearray(0x10000)
        line = config.line_bytes
        for lo, hi in window:
            if not self._write_through:
                lo, hi = lo & -line, (hi + line - 1) & -line
            self.covered[lo:hi] = bytes([1]) * (hi - lo)
        self.window = tuple(tuple(pair) for pair in window)

    @property
    def config(self):
        return self.model.config

    @property
    def stats(self) -> DataCacheStats:
        return self.model.stats

    def install(self):
        """Attach to the board's bus; loud if something else is there."""
        if self.bus.data_cache is not None and self.bus.data_cache is not self:
            raise RuntimeError("bus already has a data cache attached")
        self.bus.data_cache = self
        return self

    def load_writes(self):
        """The ``(lo, hi)`` byte ranges an application load may write:
        the line store, by fills, and in write-back mode the window's
        whole lines in FRAM, by writebacks and cleaning."""
        store = (self.model.base, self.model.base + self.config.total_bytes)
        if self._write_through:
            return (store,)
        line = self.config.line_bytes
        homes = ((lo & -line, (hi + line - 1) & -line) for lo, hi in self.window)
        return (store, *homes)

    def nvm_bytes(self, sizes):
        """``(runtime, metadata)`` NVM bytes: the modelled handler and memcpy."""
        del sizes  # the runtime area is carved past the image, not linked
        return self.costs.handler_bytes + self.costs.memcpy_bytes, 0

    # -- the hot path (called from Bus.read / Bus.write, and from blocks) -----------

    def app_read(self, address, byte):
        model = self.model
        bus = self.bus
        line = model.hit(address, False)
        if line is None:
            line = self._miss(address, False)
        if line is None:
            value = bus.fram_read_direct(address, byte)
        else:
            counters = bus.counters
            if counters.bus_tallies:
                counters.access_counts[_APP_SRAM_READ] += 1
            else:
                counters.record_data(Attribution.APP, RegionKind.SRAM, READ)
            data = bus.memory.data
            slot = line.sram + (address & self._offset_mask)
            value = data[slot] if byte else data[slot] | data[slot + 1] << 8
        interval = self._clean_interval
        if interval and not model.ticks % interval:
            self._clean()
        return value

    def app_write(self, address, value, byte):
        model = self.model
        bus = self.bus
        line = model.hit(address, True)
        if line is None:
            line = self._miss(address, True)
        if line is None:
            bus.fram_write_direct(address, value, byte)
        else:
            counters = bus.counters
            if self._write_through:
                # The store itself goes to FRAM (write-through pays the
                # wait states exactly like an uncached store); the
                # runtime keeps the SRAM copy coherent with one SRAM
                # store of its own.
                bus.fram_write_direct(address, value, byte)
                attribution, tally = Attribution.RUNTIME, _RUNTIME_SRAM_WRITE
            else:
                attribution, tally = Attribution.APP, _APP_SRAM_WRITE
            if counters.bus_tallies:
                counters.access_counts[tally] += 1
            else:
                counters.record_data(attribution, RegionKind.SRAM, WRITE)
            data = bus.memory.data
            slot = line.sram + (address & self._offset_mask)
            data[slot] = value & 0xFF
            if not byte:
                data[slot + 1] = value >> 8 & 0xFF
        interval = self._clean_interval
        if interval and not model.ticks % interval:
            self._clean()

    def _miss(self, address, is_write):
        """Classify a miss and run its fill; ``None`` for a bypass."""
        decision = self.model.decide(address, is_write)
        if decision.kind is BYPASS:
            self._note_bypass(decision, WRITE if is_write else READ, address)
            return None
        self._service_fill(decision, is_write)
        return decision.line

    # -- the miss handler -------------------------------------------------------------

    def _service_fill(self, decision, is_write):
        model = self.model
        bus = self.bus
        costs = self.costs
        line = decision.line
        emit = self.board.emit
        if emit is not None:
            emit("datacache.fill")
        with bus.attributed(Attribution.RUNTIME):
            self.handler_charger.begin_invocation()
            self.handler_charger.charge(
                costs.lookup_instructions + costs.miss_instructions
            )
            if decision.writeback:
                self._writeback_slot(line, decision.evicted_tag, cause="evict")
                model.note_evict_writeback()
            self._copy_line(source=model.fram_address(line.tag), dest=line.sram)
        if emit is not None:
            emit(
                "datacache.line-fill",
                address=model.fram_address(line.tag),
                size=model.config.line_bytes,
                occupancy=self._occupancy(),
                note="write" if is_write else "read",
            )

    def _writeback_slot(self, line, tag, cause):
        """Copy one slot's bytes to their FRAM home (caller attributes)."""
        model = self.model
        self.handler_charger.charge(self.costs.writeback_instructions)
        self._copy_line(source=line.sram, dest=model.fram_address(tag))
        if self.board.emit is not None:
            self.board.emit(
                "datacache.writeback",
                address=model.fram_address(tag),
                size=model.config.line_bytes,
                occupancy=self._occupancy(),
                note=cause,
            )

    def _copy_line(self, source, dest):
        """Word-by-word copy through the bus, attributed to memcpy."""
        bus = self.bus
        costs = self.costs
        with bus.attributed(Attribution.MEMCPY):
            self.memcpy_charger.begin_invocation()
            self.memcpy_charger.charge(
                costs.memcpy_setup_instructions, Attribution.MEMCPY
            )
            for index in range(self.model.line_words):
                self.memcpy_charger.charge(
                    costs.memcpy_instructions_per_word, Attribution.MEMCPY
                )
                value = bus.read(source + 2 * index)
                bus.write(dest + 2 * index, value)

    def _note_bypass(self, decision, access_type, address):
        if decision.cause != NO_ALLOCATE:
            # Dynamic gates (sequential run, promotion count) cost one
            # modelled instruction; write-through no-allocate is a
            # static mode property and costs nothing.
            with self.bus.attributed(Attribution.RUNTIME):
                self.handler_charger.begin_invocation()
                self.handler_charger.charge(self.costs.bypass_instructions)
        if self.board.emit is not None:
            self.board.emit(
                "datacache.bypass",
                address=address,
                note=f"{decision.cause}:{access_type}",
            )

    def _clean(self):
        """Clean what the policy picks; due every ``interval`` accesses."""
        lines = self.cleaning.tick(self.model)
        if not lines:
            return
        bus = self.bus
        with bus.attributed(Attribution.RUNTIME):
            self.handler_charger.begin_invocation()
            self.handler_charger.charge(self.costs.clean_instructions)
            for line in lines:
                self._clean_line(line)

    def _clean_line(self, line):
        model = self.model
        tag = line.tag
        self._copy_line(source=line.sram, dest=model.fram_address(tag))
        model.mark_clean(line, WB_CLEAN)
        if self.board.emit is not None:
            self.board.emit(
                "datacache.clean",
                address=model.fram_address(tag),
                size=model.config.line_bytes,
                occupancy=self._occupancy(),
            )

    # -- shutdown / power -------------------------------------------------------------

    def on_halt(self):
        """Clean shutdown: flush every dirty line (the durability point)."""
        model = self.model
        dirty = model.dirty_lines()
        if not dirty:
            return
        bus = self.bus
        with bus.attributed(Attribution.RUNTIME):
            self.handler_charger.begin_invocation()
            for line in dirty:
                self.handler_charger.charge(self.costs.writeback_instructions)
                tag = line.tag
                self._copy_line(source=line.sram, dest=model.fram_address(tag))
                model.mark_clean(line, WB_FLUSH)
                if self.board.emit is not None:
                    self.board.emit(
                        "datacache.writeback",
                        address=model.fram_address(tag),
                        size=model.config.line_bytes,
                        occupancy=self._occupancy(),
                        note="flush",
                    )

    def power_reset(self):
        """Power failure: drop every line, recording the dirty losses."""
        dropped = self.model.drop_all()
        self.last_drop = dropped
        if dropped:
            self.lost_lines.append(dropped)
            if self.board.emit is not None:
                for record in dropped:
                    self.board.emit(
                        "datacache.lost-dirty",
                        address=record["fram_address"],
                        size=self.model.config.line_bytes,
                    )
        return dropped

    def _occupancy(self):
        return len(self.model.resident_lines()) * self.model.config.line_bytes

    # -- checkpointing ---------------------------------------------------------------

    def snapshot(self):
        model = self.model
        return {
            "ticks": model.ticks,
            "requests": dict(model._requests),
            "seq": (model._seq_last_tag, model._seq_run),
            "sets": [
                [
                    (line.tag, line.dirty, line.dirty_since, line.last_tick, line.slot)
                    for line in lines
                ]
                for lines in model._sets
            ],
            "stats": dict(model.stats.__dict__),
            "lost_lines": [list(boot) for boot in self.lost_lines],
            "last_drop": list(self.last_drop),
        }

    def restore(self, snapshot):
        model = self.model
        model.ticks = snapshot["ticks"]
        model._requests = dict(snapshot["requests"])
        model._seq_last_tag, model._seq_run = snapshot["seq"]
        for lines, saved in zip(model._sets, snapshot["sets"]):
            # Each slot keeps its line object; the saved order is the
            # LRU order.
            by_slot = {line.slot: line for line in lines}
            lines[:] = [by_slot[slot] for *_, slot in saved]
            for line, (tag, dirty, dirty_since, last_tick, _) in zip(lines, saved):
                line.tag = tag
                line.dirty = dirty
                line.dirty_since = dirty_since
                line.last_tick = last_tick
        model.stats.__dict__.update(snapshot["stats"])
        self.lost_lines[:] = [list(boot) for boot in snapshot["lost_lines"]]
        self.last_drop = list(snapshot.get("last_drop", ()))
        return self
