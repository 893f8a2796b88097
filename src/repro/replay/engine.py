"""The replay engine: drive cache/cost/energy models from a trace.

A :class:`ReplayEngine` wraps one :class:`~repro.replay.schema.TraceDocument`
and replays it against any valid configuration without re-executing the
CPU. The division of labour:

* **Link once.** The mini-C source embedded in the trace header is
  compiled and run through the captured system's :mod:`repro.systems`
  link stage -- the one every execution uses -- and the resulting
  image hash must match the capture's -- otherwise the trace is stale
  and replay is refused. For SwapRAM the image is *identical* across
  every policy x cache-limit cell, so one link serves the whole
  ablation grid; each configuration then loads a board and runs the
  registry's attach stage on it.
* **Compile the stream once.** Every recorded data access is classified
  (region kind, MMIO port, redirection/active-table membership) into a
  small opcode while decoding; addresses are execution-invariant, so
  this work is config-independent. The records are grouped into
  segments that share a fetch base, and every tally that no
  configuration can change is summed here, once.
* **Walk per configuration.** The event walk charges the real
  :class:`~repro.machine.trace.AccessCounters`, simulates the real
  :class:`~repro.machine.fram_cache.FramReadCache` (operating on its
  live line lists, so the runtime's own bus traffic interleaves
  coherently), applies write values to memory, emulates the debug
  ports, and -- for SwapRAM -- re-derives every dispatch from its own
  redirection table: a redirect still pointing at the miss handler
  means the *real* :class:`~repro.core.runtime.SwapRamRuntime` hook is
  invoked against the board, reproducing the identical policy walk,
  metadata traffic, memcpy charges and statistics full execution would
  produce under this configuration. Block-cache hooks fire at their
  recorded markers. Everything outside the hooks avoids the bus
  entirely, which is where the speedup comes from.

Totals (counters, stalls, energy, stats) are bit-identical to full
execution because every accounting quantity is a sum over the same
multiset of contributions, and the only order-sensitive machine state
-- FRAM-cache line contents and memory words -- is maintained in
execution order throughout.
"""

import time
from collections import Counter
from dataclasses import dataclass

from repro import systems
from repro.core.transform import ACTIVE_TABLE, REDIR_TABLE
from repro.isa.registers import PC
from repro.machine.fram_cache import FramReadCache
from repro.machine.memory import (
    DEBUG_OUT_PORT,
    HALT_PORT,
    PUTC_PORT,
    RegionKind,
)
from repro.machine.trace import (
    FETCH,
    READ_BASE,
    REGIONS,
    WRITE_BASE,
    Attribution,
    access_slot,
    instruction_slot,
)
from repro.replay.capture import BLOCK, DATACACHE, SWAPRAM
from repro.replay.schema import (
    ACC_BYTE,
    ACC_WRITE,
    TraceDocument,
    image_sha256,
)
from repro.replay.validity import ReplayRefused, SYSTEMS, check_image, check_request
from repro.toolchain.build import compile_program, load_board
from repro.toolchain.linker import MemoryPlan

#: Replay the dimension exactly as it was captured.
AS_CAPTURED = object()

# Opcodes, produced once by `_ensure_compiled`. SRAM and MMIO reads and
# writes to unknown MMIO ports only count, so they are folded into the
# stream's fixed tallies and get no opcode. A FRAM fetch is an opcode
# too, so a segment fetched from FRAM interleaves its fetches and data
# accesses in one list.
_FETCH = 0  # addr = record pc, value = words
_RD_FRAM = 1  # extra = redirection-table funcId, or -1
_WR_FRAM_W = 2  # extra = active-table funcId, or -1
_WR_SRAM_W = 3
_WR_SRAM_B = 4
_WR_FRAM_B = 5
_WR_DEBUG = 6
_WR_PUTC = 7
_WR_HALT = 8


@dataclass(frozen=True)
class _StreamTotals:
    """The tallies every replay of one stream shares.

    Addresses and cycle counts are execution-invariant, so only the
    fetch region of function-relative records and the FRAM-cache
    outcomes vary with the configuration; everything else is summed
    once here.
    """

    instructions: int
    fetch_words: int
    cycles: int
    #: ``access_counts`` increments for the application's data accesses.
    data_accesses: tuple
    #: Application FRAM writes; each stalls for the wait states.
    fram_writes: int
    #: FRAM touches after the first within an instruction, assuming
    #: every fetch comes from SRAM; each record fetched from FRAM adds
    #: its own ``fram_contention``.
    contention: int


class ReplayError(RuntimeError):
    """The trace and the rebuilt system disagree mid-replay (corrupt or
    mis-keyed trace; distinct from an up-front :class:`ReplayRefused`)."""


class _CpuProxy:
    """The minimal CPU surface the runtime hooks touch."""

    __slots__ = ("regs", "pc_history")

    def __init__(self):
        self.regs = [0] * 16
        self.pc_history = (0, 0, 0)


@dataclass
class ReplayOutcome:
    """One replayed configuration: the same artefacts a full run yields."""

    result: object  # RunResult
    stats: object  # SwapRamStats / BlockCacheStats / None
    board: object
    runtime: object
    config: dict
    seconds: float  # event-walk wall clock
    events: int
    hook_invocations: int

    @property
    def events_per_s(self):
        return self.events / self.seconds if self.seconds else 0.0


class ReplayEngine:
    """Replays one trace against many configurations."""

    def __init__(self, document, metrics=None):
        self.document = document
        self.header = document.header
        self.metrics = metrics
        system = self.header.get("system")
        if system not in SYSTEMS:
            raise ReplayRefused([f"unknown system {system!r} in trace header"])
        self.system = system
        self._entry = systems.for_capture(system)
        self.build_seconds = 0.0
        self.compile_seconds = 0.0
        self._artifacts = None
        self._compiled = None

    @classmethod
    def from_file(cls, path, metrics=None):
        return cls(TraceDocument.load(path), metrics=metrics)

    @property
    def linked(self):
        """The rebuilt, hash-verified link artefacts for this trace."""
        return self._ensure_artifacts().linked

    # -- one-time work --------------------------------------------------------------

    def _ensure_artifacts(self):
        """Relink the captured system's image; verify it byte-matches."""
        if self._artifacts is not None:
            return self._artifacts
        header = self.header
        source = header.get("source")
        if not source:
            raise ReplayRefused(
                ["trace has no embedded source; cannot rebuild the image"]
            )
        started = time.perf_counter()
        config = header.get("capture_config") or {}
        entry = self._entry
        artefacts = entry.link(
            compile_program(source),
            MemoryPlan(**header["plan_config"]),
            **{
                knob: config[knob]
                for knob in entry.link_options
                if config.get(knob) is not None
            },
        )
        self.build_seconds += time.perf_counter() - started

        reasons = check_image(header, image_sha256(artefacts.linked.image))
        if reasons:
            self._refused()
            raise ReplayRefused(reasons)
        self._artifacts = artefacts
        return artefacts

    def _ensure_compiled(self):
        """Classify every recorded access into opcodes, once.

        Consecutive records of one function activation (or, for
        absolute records, of one fetch region) form a *segment*: they
        share the fetch base and region, so the walk resolves those
        once per segment. A segment ends after any record whose
        accesses move the activation stacks -- a redirection-table read
        (which may invoke the miss handler) or an active-table write --
        so the next segment sees their effect. Each segment is::

            (func, fram_fetch, records, words, fram_contention,
             first_pc, sram_ops, fram_ops, tail)

        ``sram_ops`` holds its data accesses alone (``None`` if there
        are none), for when it is fetched from SRAM; ``fram_ops`` puts
        a ``_FETCH`` before each record's data accesses, for when it is
        fetched from FRAM. ``tail`` is its last three pcs, newest first.
        """
        if self._compiled is not None:
            return self._compiled
        linked, meta, _ = self._ensure_artifacts()
        started = time.perf_counter()
        kinds = linked.memory_map._kinds
        fram = RegionKind.FRAM
        sram = RegionKind.SRAM
        mmio = RegionKind.MMIO
        swapram = self.system == SWAPRAM
        redir_lo = redir_hi = active_lo = active_hi = -1
        nfuncs = 0
        if swapram:
            symbols = linked.image.symbols
            nfuncs = len(meta.functions)
            redir_lo = symbols[REDIR_TABLE]
            redir_hi = redir_lo + 2 * nfuncs
            active_lo = symbols[ACTIVE_TABLE]
            active_hi = active_lo + 2 * nfuncs
        mmio_write_ops = {
            DEBUG_OUT_PORT: _WR_DEBUG,
            HALT_PORT: _WR_HALT,
            PUTC_PORT: _WR_PUTC,
        }

        app_row = Attribution.APP.slot * REGIONS
        data_accesses = Counter()
        instructions = fetch_words = cycles_total = contention = 0
        compiled = []
        run = []  # (pc, words, fram_contention, ops) of the open segment
        run_key = None  # its (func, fram_fetch)

        def close():
            func, fram_fetch = run_key
            sram_ops = [op for _, _, _, ops in run for op in ops]
            fram_ops = []
            for pc, words, _, ops in run:
                fram_ops.append((_FETCH, pc, words, -1))
                fram_ops.extend(ops)
            compiled.append(
                (
                    func,
                    fram_fetch,
                    len(run),
                    sum(words for _, words, _, _ in run),
                    sum(cost for _, _, cost, _ in run),
                    run[0][0],
                    tuple(sram_ops) if sram_ops else None,
                    tuple(fram_ops),
                    tuple(pc for pc, _, _, _ in reversed(run[-3:])),
                )
            )
            run.clear()

        for record in self.document.records:
            if record is None:
                if self.system != BLOCK:
                    raise ReplayError(
                        f"hook marker in a {self.system} trace"
                    )
                if run:
                    close()
                compiled.append(None)
                continue
            func, pc, words, cycles, accesses = record
            if func >= 0:
                if not swapram:
                    raise ReplayError(
                        f"function-relative record in a {self.system} trace"
                    )
                if func >= nfuncs:
                    raise ReplayError(f"funcId {func} out of range")
                fram_fetch = False  # decided per activation by the walk
            else:
                kind = kinds[pc]
                if kind is not fram and kind is not sram:
                    raise ReplayError(
                        f"trace executes from {kind.value} at {pc:#06x}"
                    )
                fram_fetch = kind is fram
            instructions += 1
            fetch_words += words
            cycles_total += cycles
            touches = 0
            moves_stacks = False
            ops = []
            for flags, addr, value in accesses:
                kind = kinds[addr]
                if kind is not fram and kind is not sram and kind is not mmio:
                    verb = "writes" if flags & ACC_WRITE else "reads"
                    raise ReplayError(
                        f"trace {verb} unmapped address {addr:#06x}"
                    )
                extra = -1
                if flags & ACC_WRITE:
                    data_accesses[WRITE_BASE + app_row + kind.slot] += 1
                    if kind is mmio:
                        op = mmio_write_ops.get(addr)
                    elif kind is fram:
                        touches += 1
                        if flags & ACC_BYTE:
                            op = _WR_FRAM_B
                        else:
                            op = _WR_FRAM_W
                            if active_lo <= addr < active_hi:
                                extra = (addr - active_lo) >> 1
                    else:
                        op = _WR_SRAM_B if flags & ACC_BYTE else _WR_SRAM_W
                else:
                    data_accesses[READ_BASE + app_row + kind.slot] += 1
                    op = None
                    if kind is fram:
                        touches += 1
                        op = _RD_FRAM
                        if redir_lo <= addr < redir_hi:
                            extra = (addr - redir_lo) >> 1
                if op is not None:
                    ops.append((op, addr, value, extra))
                    if extra >= 0:
                        moves_stacks = True
            if touches > 1:
                contention += touches - 1
            if run and run_key != (func, fram_fetch):
                close()
            run_key = (func, fram_fetch)
            # What fetching from FRAM adds to this record's contention.
            fram_contention = words if touches else words - 1
            run.append((pc, words, fram_contention, ops))
            if moves_stacks:
                close()
        if run:
            close()
        compiled = (
            compiled,
            _StreamTotals(
                instructions=instructions,
                fetch_words=fetch_words,
                cycles=cycles_total,
                data_accesses=tuple(sorted(data_accesses.items())),
                fram_writes=data_accesses[WRITE_BASE + app_row + fram.slot],
                contention=contention,
            ),
        )
        self._compiled = compiled
        self.compile_seconds += time.perf_counter() - started
        return compiled

    # -- the replay ----------------------------------------------------------------

    def replay(
        self,
        policy=AS_CAPTURED,
        cache_limit=AS_CAPTURED,
        frequency_mhz=None,
        thrash_guard=None,
        prefetcher=None,
        fram_cache=None,
        datacache=AS_CAPTURED,
    ):
        """Replay one configuration; returns a :class:`ReplayOutcome`.

        Defaults replay the captured configuration. For SwapRAM traces
        *policy* (name from ``core.policy.POLICIES``), *cache_limit*
        and *frequency_mhz* are free dimensions; for block-cache traces
        only the frequency is. *fram_cache* -- a ``(sets, ways,
        line_bytes)`` triple -- swaps the FRAM read-cache geometry and
        is free for every system because that cache is timing-only.
        *datacache* -- a :class:`~repro.datacache.cache.DataCacheConfig`
        -- attaches a write-through data cache over a baseline-shaped
        stream (baseline or datacache traces); write-back is refused by
        validity because it decouples durable FRAM writes from the
        recorded store events. Invalid requests raise
        :class:`ReplayRefused` without touching the models.
        """
        config = self.header.get("capture_config") or {}
        if policy is AS_CAPTURED:
            policy = config.get("policy")
        if cache_limit is AS_CAPTURED:
            if self.system == BLOCK:
                cache_limit = config.get("cache_limit")
            else:
                # For SwapRAM the recorded effective cache_size is an
                # exact stand-in for a missing cache_limit.
                cache_limit = config.get("cache_limit", config.get("cache_size"))
        if frequency_mhz is None:
            frequency_mhz = self.header["frequency_mhz"]
        if datacache is AS_CAPTURED:
            if self.system == DATACACHE:
                from repro.datacache.cache import DataCacheConfig

                datacache = DataCacheConfig.from_dict(config)
            else:
                datacache = None

        reasons = check_request(
            self.header,
            policy=policy,
            cache_limit=cache_limit,
            frequency_mhz=frequency_mhz,
            thrash_guard=thrash_guard,
            prefetcher=prefetcher,
            fram_cache=fram_cache,
            datacache=datacache,
        )
        if reasons:
            self._refused()
            raise ReplayRefused(reasons)

        compiled = self._ensure_compiled()
        # Per configuration: a loaded board and the registry's attach
        # stage, as every execution builds it.
        board = load_board(self._artifacts.linked, frequency_mhz)
        if fram_cache is not None:
            # The FRAM read cache is timing-only (never feeds back into
            # the instruction stream), so any geometry is a free replay
            # dimension for every system -- hw_cache_sweep's precedent.
            board.bus.fram_cache = FramReadCache(*fram_cache)
        # Validity has refused every knob the captured system does not
        # take, so what is set here is the attach stage's.
        entry = self._entry
        knobs = {
            knob: value
            for knob, value in (
                ("policy", policy),
                ("cache_limit", cache_limit),
                ("thrash_guard", thrash_guard),
                ("prefetcher", prefetcher),
            )
            if value is not None
        }
        if datacache is not None:
            # Validity has already refused write-back; a write-through
            # data cache is a free dimension over baseline-shaped
            # streams (lookups never alter the instruction stream).
            entry, knobs = systems.for_capture(DATACACHE), {"config": datacache}
        runtime = entry.attach(board, self._artifacts, **knobs)
        if self.system == BLOCK:
            # Chained branches in the stream encode capture-time slot
            # addresses; any geometry drift invalidates them.
            geometry = []
            for attribute in ("cache_base", "slot_bytes", "num_slots"):
                captured = config.get(attribute)
                rebuilt = getattr(runtime, attribute)
                if captured is not None and captured != rebuilt:
                    geometry.append(
                        f"{attribute} {rebuilt} != captured {captured}"
                    )
            if geometry:
                self._refused()
                raise ReplayRefused(
                    ["block-cache geometry mismatch: " + ", ".join(geometry)]
                )

        started = time.perf_counter()
        if datacache is not None:
            hook_invocations = self._walk_via_bus(board)
        else:
            hook_invocations = self._walk(board, runtime, compiled)
        seconds = time.perf_counter() - started

        if not board.bus.halted:
            raise ReplayError("trace replay did not reach the halt port")
        outcome = ReplayOutcome(
            result=board.result(),
            stats=runtime.stats if runtime is not None else None,
            board=board,
            runtime=runtime,
            config={
                "system": self.system,
                "plan": self.header["plan"],
                "policy": policy,
                "cache_limit": cache_limit,
                "frequency_mhz": frequency_mhz,
                "fram_cache": (
                    tuple(fram_cache) if fram_cache is not None else None
                ),
                "datacache": (
                    datacache.as_dict() if datacache is not None else None
                ),
            },
            seconds=seconds,
            events=len(self.document.records),
            hook_invocations=hook_invocations,
        )
        if self.metrics is not None:
            self.metrics.counter("replay.runs").inc()
            self.metrics.counter("replay.events").inc(outcome.events)
            self.metrics.counter("replay.hook_invocations").inc(hook_invocations)
            self.metrics.gauge("replay.events_per_s").set(outcome.events_per_s)
        return outcome

    def _refused(self):
        if self.metrics is not None:
            self.metrics.counter("replay.refused").inc()

    def _walk(self, board, runtime, compiled):
        """The hot loop: one pass over the compiled event stream."""
        stream, totals = compiled
        bus = board.bus
        data = board.memory.data
        fc = bus.fram_cache
        lines = fc._lines
        nsets = fc.sets
        nways = fc.ways
        shift = fc.line_bytes.bit_length() - 1
        wait = bus.wait_states
        fram_start = board.memory_map.fram.start
        debug_words = bus.debug_words
        output_chars = bus.output_chars

        swapram = self.system == SWAPRAM
        track_history = self.system == BLOCK
        proxy = _CpuProxy()
        regs = proxy.regs
        hook = runtime  # SwapRamRuntime/BlockCacheRuntime are callables
        if swapram:
            redir_base = runtime.redir_base
            handler = runtime.handler_addr
            stacks = [[] for _ in runtime.meta.functions]
        history = (0, 0, 0)

        hits = misses = invals = stall = 0
        contention = totals.contention
        fetch_fram = instr_fram = 0
        hook_invocations = 0

        for segment in stream:
            if segment is None:
                proxy.pc_history = history
                regs[PC] = 0
                hook(proxy)
                hook_invocations += 1
                continue
            (
                func,
                fram_fetch,
                records,
                words,
                fram_contention,
                pc,
                ops,
                fram_ops,
                tail,
            ) = segment
            base = 0
            if func >= 0:
                stack = stacks[func]
                if not stack:
                    raise ReplayError(
                        f"record for funcId {func} outside any activation"
                    )
                base = stack[-1]
                # A function is placed wholly in SRAM or wholly in FRAM.
                fram_fetch = base + pc >= fram_start
            if fram_fetch:
                instr_fram += records
                fetch_fram += words
                contention += fram_contention
                ops = fram_ops
            if ops is not None:
                pending = -1
                for op, addr, value, extra in ops:
                    if op == _FETCH:
                        # Past its first word, a line the instruction
                        # spans is the most recently used, and every word
                        # hits it without changing the LRU order: only
                        # each line's first word needs a lookup.
                        addr += base
                        tag = addr >> shift
                        last = (addr + 2 * value - 2) >> shift
                        hits += value - 1 - (last - tag)
                        while True:
                            ways = lines[tag % nsets]
                            if ways and ways[-1] == tag:
                                hits += 1
                            elif tag in ways:
                                ways.remove(tag)
                                ways.append(tag)
                                hits += 1
                            else:
                                misses += 1
                                ways.append(tag)
                                if len(ways) > nways:
                                    ways.pop(0)
                                stall += wait
                            if tag == last:
                                break
                            tag += 1
                    elif op == _RD_FRAM:
                        tag = addr >> shift
                        ways = lines[tag % nsets]
                        if ways and ways[-1] == tag:
                            hits += 1
                        elif tag in ways:
                            ways.remove(tag)
                            ways.append(tag)
                            hits += 1
                        else:
                            misses += 1
                            ways.append(tag)
                            if len(ways) > nways:
                                ways.pop(0)
                            stall += wait
                        if extra >= 0:
                            pending = extra
                    elif op == _WR_FRAM_W:
                        tag = addr >> shift
                        ways = lines[tag % nsets]
                        if tag in ways:
                            ways.remove(tag)
                            invals += 1
                        if extra >= 0 and value < (
                            data[addr] | (data[addr + 1] << 8)
                        ):
                            stack = stacks[extra]
                            if stack:
                                stack.pop()
                        data[addr] = value & 0xFF
                        data[addr + 1] = value >> 8
                    elif op == _WR_SRAM_W:
                        data[addr] = value & 0xFF
                        data[addr + 1] = value >> 8
                    elif op == _WR_SRAM_B:
                        data[addr] = value
                    elif op == _WR_FRAM_B:
                        tag = addr >> shift
                        ways = lines[tag % nsets]
                        if tag in ways:
                            ways.remove(tag)
                            invals += 1
                        data[addr] = value
                    elif op == _WR_DEBUG:
                        debug_words.append(value)
                    elif op == _WR_PUTC:
                        output_chars.append(chr(value & 0xFF))
                    else:  # _WR_HALT
                        bus.halted = True
                if pending >= 0:
                    address = redir_base + (pending << 1)
                    target = data[address] | (data[address + 1] << 8)
                    if target == handler:
                        regs[PC] = 0
                        hook(proxy)
                        hook_invocations += 1
                        target = regs[PC]
                    stacks[pending].append(target)
            if track_history:
                history = (tail + history)[:3]

        # Flush the local and the stream's fixed tallies into the real
        # accounting objects. Every quantity is additive, so hook-time
        # contributions (made directly through the bus) and these
        # deltas commute.
        app = Attribution.APP
        fram = RegionKind.FRAM
        sram = RegionKind.SRAM
        counters = board.counters
        accesses = counters.access_counts
        accesses[access_slot(app, fram, FETCH)] += fetch_fram
        accesses[access_slot(app, sram, FETCH)] += totals.fetch_words - fetch_fram
        for slot, count in totals.data_accesses:
            accesses[slot] += count
        instructions = counters.instruction_counts
        instructions[instruction_slot(app, fram)] += instr_fram
        instructions[instruction_slot(app, sram)] += (
            totals.instructions - instr_fram
        )
        counters.cycle_counts[app.slot] += totals.cycles
        counters.stall_cycles += (
            stall
            + totals.fram_writes * wait
            + contention * bus.contention_penalty
        )
        fc.hits += hits
        fc.misses += misses
        fc.invalidates += invals
        return hook_invocations

    def _walk_via_bus(self, board):
        """The data-cache walk: re-issue every event through the real bus.

        A data cache cannot use :meth:`_walk`'s local tallies: its hit
        path, fill/writeback chargers and cleaning-policy drains share
        per-instruction contention state with the application access
        that triggered them (``begin_instruction`` resets the FRAM touch
        count, and the runtime's RUNTIME/MEMCPY traffic lands *inside*
        the triggering instruction). So this walk mirrors the CPU's
        step sequence exactly -- ``begin_instruction``, fetch
        accounting, data accesses, ``record_instruction`` -- against
        the genuine bus, and the interception, chargers, FRAM read
        cache and contention interleave precisely as execution did.
        Slower than :meth:`_walk`, but still decode/dispatch-free.

        Recorded reads carry no byte flag; ``byte=addr & 1`` is safe
        because byte- and word-reads account identically and replay
        discards the value.
        """
        bus = board.bus
        begin = bus.begin_instruction
        account = bus.account_fetch
        read = bus.read
        write = bus.write
        record = board.counters.record_instruction
        kinds = bus._kinds
        app = Attribution.APP
        for entry in self.document.records:
            if entry is None:
                raise ReplayError("hook marker in a baseline-shaped trace")
            _func, pc, words, cycles, accesses = entry
            begin()
            account(pc, words)
            for flags, addr, value in accesses:
                if flags & ACC_WRITE:
                    write(addr, value, byte=bool(flags & ACC_BYTE))
                else:
                    read(addr, byte=bool(addr & 1))
            record(app, kinds[pc], cycles)
        return 0
