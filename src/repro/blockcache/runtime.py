"""Block-cache runtime: slot placement, hashing, chaining, flush-on-full.

Hosted as a native hook at ``__bb_runtime`` (same mechanism as SwapRAM's
handler -- see DESIGN.md). A stub arrives here after storing its CFI id
to ``__bb_cur``. The runtime:

1. maps CFI id -> target block (table reads in FRAM);
2. looks the block up in the djb2-hashed, linearly-probed table kept in
   FRAM (paper §4: FRAM placement beat SRAM placement);
3. on miss, takes a free slot -- flushing the *entire* cache when none
   is left (the original paper's highest-performance variant) -- and
   copies the block in;
4. *chains*: if the branch that entered the stub lives in a cached SRAM
   copy, its immediate is overwritten to point straight at the target's
   slot, eliminating future runtime entries on that edge;
5. branches to the slot.
"""

from dataclasses import dataclass, field

from repro.blockcache.transform import (
    BLOCK_TABLE,
    CFI_TABLE,
    CUR_CFI,
    HASH_TABLE,
    MEMCPY_AREA,
    MOV_IMM_TO_PC,
    RUNTIME_ENTRY,
)
from repro.core.costs import CostCharger
from repro.isa.registers import PC
from repro.machine.trace import Attribution


@dataclass
class BlockCacheStats:
    """Observable runtime behaviour for tests and experiments."""

    entries: int = 0  # runtime invocations
    hits: int = 0  # block already cached
    misses: int = 0
    flushes: int = 0
    chains: int = 0
    words_copied: int = 0
    per_block_caches: dict = field(default_factory=dict)

    def as_dict(self):
        """Plain-data view for reports, traces and the difftest runner."""
        return {
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "chains": self.chains,
            "words_copied": self.words_copied,
            "per_block_caches": dict(self.per_block_caches),
        }


def djb2_word(value):
    """djb2 over the two bytes of a 16-bit value (shift/add only, §4)."""
    digest = 5381
    digest = ((digest << 5) + digest + (value & 0xFF)) & 0xFFFFFFFF
    digest = ((digest << 5) + digest + ((value >> 8) & 0xFF)) & 0xFFFFFFFF
    return digest


class BlockCacheRuntime:
    """Host-side block-cache runtime operating on the simulated machine."""

    def __init__(self, board, image, meta, cache_base, cache_size):
        self.board = board
        self.bus = board.bus
        self.image = image
        self.meta = meta
        self.costs = meta.cost_model
        self.stats = BlockCacheStats()
        #: Opt-in observability hook (see :mod:`repro.obs.timeline`).
        #: ``None`` by default; every use is behind an ``is not None``
        #: guard so the untraced hot path is unchanged.
        self.timeline = None
        #: Opt-in metrics hook (see :mod:`repro.metrics.instrument`).
        #: Same discipline as ``timeline``: ``None`` by default, every
        #: use guarded by ``is not None``.
        self.metrics = None

        symbols = image.symbols
        self.cur_addr = symbols[CUR_CFI]
        self.cfitab = symbols[CFI_TABLE]
        self.blocktab = symbols[BLOCK_TABLE]
        self.hash_base = symbols[HASH_TABLE]
        self.entry_addr = symbols[RUNTIME_ENTRY]
        self.hash_mask = meta.hash_entries - 1

        self.slot_bytes = meta.slot_bytes
        self.cache_base = (cache_base + 1) & ~1
        usable = cache_size - (self.cache_base - cache_base)
        self.num_slots = max(usable // meta.slot_bytes, 1)
        self.free_slots = list(range(self.num_slots))
        self.cached_blocks = {}  # block_id -> slot index (host mirror)

        self.charger = CostCharger(
            self.bus,
            self.entry_addr,
            self.costs.handler_bytes,
            self.costs.cycles_per_instruction,
        )
        self.memcpy_charger = CostCharger(
            self.bus,
            symbols[MEMCPY_AREA],
            self.costs.memcpy_bytes,
            self.costs.cycles_per_instruction,
        )

    def install(self):
        self.board.add_hook(self.entry_addr, self)
        return self

    def nvm_bytes(self, sizes):
        """``(runtime, metadata)`` NVM bytes: the stubs count as metadata."""
        metadata = sizes.get("bbmeta", 0) + sizes.get("bbstubs", 0)
        return sizes.get("bbruntime", 0), metadata

    # -- hash table in simulated FRAM ---------------------------------------------

    def _entry_addr(self, index):
        return self.hash_base + 4 * (index & self.hash_mask)

    def _lookup(self, block_id):
        """Probe for *block_id*; returns slot address or None."""
        key = block_id + 1  # 0 means empty
        index = djb2_word(block_id) & self.hash_mask
        for _probe in range(self.meta.hash_entries):
            self.charger.charge(self.costs.probe_instructions)
            entry = self._entry_addr(index)
            stored = self.bus.read(entry)
            if stored == 0:
                return None
            if stored == key:
                return self.bus.read(entry + 2)
            index += 1
        return None

    def _insert(self, block_id, slot_addr):
        key = block_id + 1
        index = djb2_word(block_id) & self.hash_mask
        for _probe in range(self.meta.hash_entries):
            entry = self._entry_addr(index)
            if self.bus.read(entry) == 0:
                self.charger.charge(self.costs.insert_instructions)
                self.bus.write(entry, key)
                self.bus.write(entry + 2, slot_addr)
                return
            index += 1
        raise RuntimeError("block-cache hash table full")

    def _flush(self):
        """Discard every cached block and clear the hash table."""
        self.stats.flushes += 1
        if self.metrics is not None:
            self.metrics.counter("blockcache.flushes").inc()
        if self.timeline is not None:
            self.timeline.record(
                "flush",
                size=(self.num_slots - len(self.free_slots)) * self.slot_bytes,
                occupancy=0,
                note=f"{len(self.cached_blocks)}-blocks",
            )
        for index in range(self.meta.hash_entries):
            self.charger.charge(self.costs.flush_instructions_per_entry)
            entry = self._entry_addr(index)
            self.bus.write(entry, 0)
            self.bus.write(entry + 2, 0)
        self.free_slots = list(range(self.num_slots))
        self.cached_blocks = {}

    # -- the runtime entry ----------------------------------------------------------

    def __call__(self, cpu):
        bus = self.bus
        costs = self.costs
        self.stats.entries += 1
        if self.metrics is not None:
            self.metrics.counter("blockcache.entries").inc()
        self.charger.begin_invocation()
        self.memcpy_charger.begin_invocation()
        flushes_before = self.stats.flushes

        with bus.attributed(Attribution.RUNTIME):
            self.charger.charge(costs.entry_instructions)
            cfi_id = bus.read(self.cur_addr)
            if not 0 <= cfi_id < len(self.meta.cfi_targets):
                raise RuntimeError(f"block runtime: bad CFI id {cfi_id}")
            block_id = bus.read(self.cfitab + 2 * cfi_id)
            slot_addr = self._lookup(block_id)
            if slot_addr is not None:
                self.stats.hits += 1
                if self.metrics is not None:
                    self.metrics.counter("blockcache.hits").inc()
                if self.timeline is not None:
                    self.timeline.record(
                        "hit",
                        func=self.meta.blocks[block_id].function,
                        address=slot_addr,
                        note=self.meta.blocks[block_id].label,
                    )
            else:
                slot_addr = self._cache_block(block_id)
            # A flush in _cache_block discards the copy holding the source
            # branch -- chaining through the stale pointer would scribble
            # on whatever block now owns that slot.
            if self.stats.flushes == flushes_before:
                self._chain(cpu, slot_addr)
            self.charger.charge(costs.exit_instructions)
        cpu.regs[PC] = slot_addr

    def _cache_block(self, block_id):
        bus = self.bus
        self.stats.misses += 1
        if self.metrics is not None:
            self.metrics.counter("blockcache.misses").inc()
        if self.timeline is not None:
            info = self.meta.blocks[block_id]
            self.timeline.record(
                "miss",
                func=info.function,
                note=info.label,
                occupancy=(self.num_slots - len(self.free_slots)) * self.slot_bytes,
            )
        if not self.free_slots:
            self._flush()
        slot = self.free_slots.pop(0)
        slot_addr = self.cache_base + slot * self.slot_bytes

        nvm_addr = bus.read(self.blocktab + 4 * block_id)
        size = bus.read(self.blocktab + 4 * block_id + 2)
        words = (size + 1) // 2
        self.stats.words_copied += words
        if self.metrics is not None:
            self.metrics.histogram("blockcache.copied_words").observe(words)
        with bus.attributed(Attribution.MEMCPY):
            self.memcpy_charger.charge(
                self.costs.memcpy_setup_instructions, Attribution.MEMCPY
            )
            for index in range(words):
                self.memcpy_charger.charge(
                    self.costs.memcpy_instructions_per_word, Attribution.MEMCPY
                )
                bus.write(slot_addr + 2 * index, bus.read(nvm_addr + 2 * index))

        self._insert(block_id, slot_addr)
        self.cached_blocks[block_id] = slot
        label = self.meta.blocks[block_id].label
        counts = self.stats.per_block_caches
        counts[label] = counts.get(label, 0) + 1
        if self.timeline is not None:
            self.timeline.record(
                "cache",
                func=self.meta.blocks[block_id].function,
                address=slot_addr,
                size=size,
                occupancy=(self.num_slots - len(self.free_slots)) * self.slot_bytes,
                note=label,
            )
        return slot_addr

    def _chain(self, cpu, slot_addr):
        """Rewrite the SRAM branch that entered the stub, if there was one.

        The stub executed two instructions (MOV then BR) before the hook
        fired, so the candidate source branch is the third-newest PC. It
        only chains when it is a ``BR #imm`` inside the cache area --
        FRAM originals always keep pointing at their stubs, and returns
        (``RET``) are dynamic and unchainable.
        """
        source = cpu.pc_history[2]
        if not (
            self.cache_base <= source < self.cache_base + self.num_slots * self.slot_bytes
        ):
            return
        if self.bus.memory.read_word(source) != MOV_IMM_TO_PC:
            return
        self.charger.charge(self.costs.chain_instructions)
        self.bus.write(source + 2, slot_addr)
        self.stats.chains += 1
        if self.metrics is not None:
            self.metrics.counter("blockcache.chains").inc()
        if self.timeline is not None:
            self.timeline.record("chain", address=source, note=f"->{slot_addr:#06x}")
