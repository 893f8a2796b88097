"""The SwapRAM cache miss handler (paper §3.3, Figure 4).

Installed as a native hook at ``__sr_miss_handler``. A call to an
uncached function arrives here via ``CALL &__sr_redir+2k`` (return
address already pushed, argument registers untouched). The handler:

1. reads the signalled funcId and its function-table entry;
2. asks the cache policy where to place the function and whom to evict;
3. checks every flagged victim's active counter -- if any is live the
   whole caching operation aborts and the call executes from NVM
   (call-stack integrity, §3.3.3);
4. evicts victims: redirection entries back to the handler, relocation
   entries back to their NVM targets;
5. copies the function into SRAM word by word;
6. writes the function's relocation entries (``sram_base + offset``)
   and repoints its redirection entry at the copy;
7. branches to the copy.

Every metadata touch and every copied word is a real bus transaction;
control-flow-free work (register save/restore, arithmetic) is charged
through :class:`~repro.core.costs.CostCharger`.
"""

from dataclasses import dataclass, field

from repro.core.costs import CostCharger
from repro.core.transform import (
    ACTIVE_TABLE,
    CUR_FUNC,
    FUNC_TABLE,
    MEMCPY_AREA,
    MISS_HANDLER,
    REDIR_TABLE,
    RELOC_TABLE,
)
from repro.isa.registers import PC
from repro.machine.trace import Attribution


@dataclass
class SwapRamStats:
    """Observable runtime behaviour, for tests and experiments."""

    misses: int = 0
    caches: int = 0
    evictions: int = 0
    aborts: int = 0  # eviction blocked by an active victim
    nvm_fallbacks: int = 0  # executions redirected back to NVM
    words_copied: int = 0
    freezes: int = 0  # thrash-guard activations (extension, §5.4)
    frozen_fallbacks: int = 0  # NVM executions while frozen
    prefetches: int = 0  # call-graph prefetches (extension, §3)
    per_function_caches: dict = field(default_factory=dict)

    @property
    def thrash_ratio(self):
        """Re-caches per function actually cached -- AES-style thrashing.

        0.0 when nothing was ever cached: a run that never cached a
        function cannot have thrashed (it may well have fallen back to
        NVM on every miss, which other counters expose).
        """
        if not self.per_function_caches:
            return 0.0
        return self.caches / len(self.per_function_caches)

    def as_dict(self):
        """Plain-data view for reports, traces and the difftest runner."""
        return {
            "misses": self.misses,
            "caches": self.caches,
            "evictions": self.evictions,
            "aborts": self.aborts,
            "nvm_fallbacks": self.nvm_fallbacks,
            "words_copied": self.words_copied,
            "freezes": self.freezes,
            "frozen_fallbacks": self.frozen_fallbacks,
            "prefetches": self.prefetches,
            "thrash_ratio": self.thrash_ratio,
            "per_function_caches": dict(self.per_function_caches),
        }


class SwapRamRuntime:
    """Host-side miss handler operating on the simulated machine."""

    def __init__(
        self,
        board,
        image,
        meta,
        policy,
        cost_model,
        thrash_guard=None,
        prefetcher=None,
    ):
        self.board = board
        self.bus = board.bus
        self.image = image
        self.meta = meta
        self.policy = policy
        self.costs = cost_model
        self.thrash_guard = thrash_guard
        self.prefetcher = prefetcher
        self.stats = SwapRamStats()

        symbols = image.symbols
        self.cur_func_addr = symbols[CUR_FUNC]
        self.redir_base = symbols[REDIR_TABLE]
        self.active_base = symbols[ACTIVE_TABLE]
        self.functab_base = symbols[FUNC_TABLE]
        self.reloc_base = symbols[RELOC_TABLE]
        self.handler_addr = symbols[MISS_HANDLER]
        self.by_id = {m.func_id: m for m in meta.functions}
        self.nvm_addr = {m.func_id: symbols[m.name] for m in meta.functions}

        self.handler_charger = CostCharger(
            self.bus,
            self.handler_addr,
            meta.handler_bytes,
            cost_model.cycles_per_instruction,
        )
        self.memcpy_charger = CostCharger(
            self.bus,
            symbols[MEMCPY_AREA],
            meta.memcpy_bytes,
            cost_model.cycles_per_instruction,
        )

    def install(self):
        """Hook the miss handler's entry address."""
        self.board.add_hook(self.handler_addr, self)
        return self

    def nvm_bytes(self, sizes):
        """``(runtime, metadata)`` NVM bytes from the linked section sizes."""
        return sizes.get("srruntime", 0), sizes.get("srmeta", 0)

    # -- the handler ---------------------------------------------------------------

    def __call__(self, cpu):
        bus = self.bus
        costs = self.costs
        charge = self.handler_charger.charge
        emit = self.board.emit
        self.stats.misses += 1
        if emit is not None:
            emit("swapram.entry")
        self.handler_charger.begin_invocation()
        self.memcpy_charger.begin_invocation()

        with bus.attributed(Attribution.RUNTIME):
            charge(costs.entry_instructions)
            func_id = bus.read(self.cur_func_addr)
            func = self.by_id.get(func_id)
            if func is None:
                raise RuntimeError(f"miss handler: bad funcId {func_id}")
            nvm_addr = bus.read(self.functab_base + 4 * func_id)
            size = bus.read(self.functab_base + 4 * func_id + 2)
            if emit is not None:
                emit(
                    "swapram.miss",
                    func=func.name,
                    func_id=func_id,
                    size=size,
                    occupancy=self.policy.used_bytes(),
                )

            target = self._try_cache(func, nvm_addr, size)
            if self.prefetcher is not None and target != nvm_addr:
                self._prefetch_callees(func)
            charge(costs.exit_instructions)
        cpu.regs[PC] = target

    def _prefetch_callees(self, func):
        """Extension: pull *func*'s likely callees into free space."""
        bus = self.bus
        costs = self.costs
        for callee in self.prefetcher.candidates(self, func):
            self.handler_charger.charge(costs.decision_instructions)
            nvm_addr = bus.read(self.functab_base + 4 * callee.func_id)
            size = bus.read(self.functab_base + 4 * callee.func_id + 2)
            placement = self.policy.plan(size, is_active=self._is_active)
            if placement is None or placement.victims:
                continue  # never evict on a prediction
            node = self.policy.commit(callee.func_id, placement, size)
            self._copy_function(nvm_addr, node.address, size)
            self._apply_relocations(callee, node.address)
            bus.write(self.redir_base + 2 * callee.func_id, node.address)
            self.prefetcher.note_prefetch()
            self.stats.prefetches += 1
            if self.board.emit is not None:
                self.board.emit(
                    "swapram.prefetch",
                    func=callee.name,
                    func_id=callee.func_id,
                    address=node.address,
                    size=size,
                    occupancy=self.policy.used_bytes(),
                )
            counts = self.stats.per_function_caches
            counts[callee.name] = counts.get(callee.name, 0) + 1

    def _try_cache(self, func, nvm_addr, size):
        """Cache *func* if possible; return the address to execute."""
        bus = self.bus
        costs = self.costs
        charge = self.handler_charger.charge
        emit = self.board.emit

        charge(costs.decision_instructions)
        placement = self.policy.plan(size, is_active=self._is_active)
        if placement is None:
            self.stats.nvm_fallbacks += 1
            if emit is not None:
                emit(
                    "swapram.nvm-fallback", func=func.name, func_id=func.func_id,
                    note="no-placement",
                )
            return nvm_addr
        charge(costs.scan_instructions_per_node * max(placement.nodes_scanned, 1))

        # Thrash-guard extension (§5.4): while frozen, misses that would
        # evict live cache contents run from NVM instead of churning.
        if self.thrash_guard is not None:
            freezes_before = self.stats.freezes
            frozen = self.thrash_guard.observe_miss(bool(placement.victims))
            self.stats.freezes = self.thrash_guard.freezes
            if emit is not None and self.stats.freezes > freezes_before:
                emit(
                    "swapram.freeze", func=func.name, func_id=func.func_id,
                    occupancy=self.policy.used_bytes(),
                )
            if frozen and placement.victims:
                self.stats.frozen_fallbacks += 1
                self.stats.nvm_fallbacks += 1
                if emit is not None:
                    emit(
                        "swapram.nvm-fallback", func=func.name, func_id=func.func_id,
                        note="frozen",
                    )
                return nvm_addr

        # Flag victims, then verify none is on the call stack (§3.3.3).
        for victim in placement.victims:
            charge(costs.active_check_instructions)
            active = bus.read(self.active_base + 2 * victim.func_id)
            # The incoming function's own counter was already incremented
            # at the call site; ignore that self-reference if it appears.
            if victim.func_id == func.func_id:
                active -= 1
            if active:
                self.stats.aborts += 1
                self.stats.nvm_fallbacks += 1
                if emit is not None:
                    victim_name = self.by_id[victim.func_id].name
                    emit(
                        "swapram.abort", func=func.name, func_id=func.func_id,
                        note=f"active-victim:{victim_name}",
                    )
                    emit(
                        "swapram.nvm-fallback", func=func.name, func_id=func.func_id,
                        note="abort",
                    )
                return nvm_addr

        for victim in placement.victims:
            self._evict(victim)
            charge(costs.evict_instructions)

        node = self.policy.commit(func.func_id, placement, size)
        self._copy_function(nvm_addr, node.address, size)
        self._apply_relocations(func, node.address)
        bus.write(self.redir_base + 2 * func.func_id, node.address)

        self.stats.caches += 1
        if emit is not None:
            emit(
                "swapram.cache", func=func.name, func_id=func.func_id,
                address=node.address, size=size,
                occupancy=self.policy.used_bytes(),
            )
        counts = self.stats.per_function_caches
        counts[func.name] = counts.get(func.name, 0) + 1
        return node.address

    def _is_active(self, func_id):
        """Uncharged planning peek; the charged per-victim check below is
        the authoritative one (it re-reads through the bus)."""
        return self.bus.memory.read_word(self.active_base + 2 * func_id) > 0

    def _evict(self, victim):
        """Reset a victim's metadata (paper §3.3.2)."""
        bus = self.bus
        self.stats.evictions += 1
        if self.board.emit is not None:
            self.board.emit(
                "swapram.evict",
                func=self.by_id[victim.func_id].name,
                func_id=victim.func_id,
                address=victim.address,
                size=victim.size,
                occupancy=self.policy.used_bytes(),
            )
        bus.write(self.redir_base + 2 * victim.func_id, self.handler_addr)
        meta = self.by_id[victim.func_id]
        nvm_base = self.nvm_addr[victim.func_id]
        for reloc in meta.relocs:
            self.handler_charger.charge(self.costs.reloc_instructions)
            bus.write(
                self.reloc_base + 2 * reloc.index,
                (nvm_base + reloc.target_offset) & 0xFFFF,
            )

    def _copy_function(self, source, dest, size):
        """Word-by-word copy through the bus, attributed to memcpy."""
        bus = self.bus
        words = (size + 1) // 2
        self.stats.words_copied += words
        if self.board.emit is not None:
            self.board.emit("swapram.copy", words=words)
        with bus.attributed(Attribution.MEMCPY):
            self.memcpy_charger.charge(
                self.costs.memcpy_setup_instructions, Attribution.MEMCPY
            )
            for index in range(words):
                self.memcpy_charger.charge(
                    self.costs.memcpy_instructions_per_word, Attribution.MEMCPY
                )
                value = bus.read(source + 2 * index)
                bus.write(dest + 2 * index, value)

    def _apply_relocations(self, func, sram_base):
        for reloc in func.relocs:
            self.handler_charger.charge(self.costs.reloc_instructions)
            self.bus.write(
                self.reloc_base + 2 * reloc.index,
                (sram_base + reloc.target_offset) & 0xFFFF,
            )
