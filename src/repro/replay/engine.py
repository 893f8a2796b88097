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
  entirely, which is where the speedup comes from. Per cache
  geometry, each segment's ops are split once into FRAM-cache lookups
  and data ops (:func:`_prepare`), and the lookups' effect is memoised
  by the lines their sets hold on entry. The split is timed as
  ``prepare_seconds``, apart from the walk's ``seconds``: a grid pays
  it once per geometry, a single replay once.
* **A write-through data cache in the same walk.** The accesses its
  window covers are classified when the stream compiles. A covered
  read that hits touches no FRAM, and only a miss changes which lines
  are resident, so a segment whose covered reads all have their lines
  resident on entry takes the split and the memo with its covered
  reads left out, and costs the real
  :class:`~repro.datacache.cache.DataCacheModel` one hit per covered
  access. A segment that may miss is walked against the live caches,
  through the real runtime's ``app_read``/``app_write``, so its fills
  and bypasses charge exactly as in execution.

Totals (counters, stalls, energy, stats) are bit-identical to full
execution because every accounting quantity is a sum over the same
multiset of contributions, and the only order-sensitive machine state
-- FRAM-cache line contents and memory words -- is maintained in
execution order throughout.
"""

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro import systems
from repro.core.transform import ACTIVE_TABLE, REDIR_TABLE
from repro.datacache.system import data_window
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
    READ,
    READ_BASE,
    REGIONS,
    WRITE,
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
# A baseline-shaped stream's FRAM accesses inside the data window
# (`repro.datacache.system.data_window`), which a write-through data
# cache covers. With no data cache attached they act as `_RD_FRAM`,
# `_WR_FRAM_W` and `_WR_FRAM_B` do; under one a covered read is no
# FRAM-cache lookup, since a hit is served from SRAM, and a covered
# write still stores to FRAM.
_RD_COVERED = 9
_WR_COVERED_W = 10
_WR_COVERED_B = 11
_FRAM_WRITES = frozenset((_WR_FRAM_W, _WR_FRAM_B, _WR_COVERED_W, _WR_COVERED_B))


#: Records a segment spans before a backward step may end it.
_LOOP_SEGMENT = 16

#: Entries a walk's memo of lookup effects holds before it starts over.
_MEMO_ENTRIES = 4096


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
    #: Reads inside the data window; under a data cache a hit is an
    #: application SRAM read and touches no FRAM.
    covered_reads: int
    #: All the contention when no covered read touches FRAM, fetches
    #: included: a data cache replays only baseline-shaped streams,
    #: whose records are fetched from fixed regions.
    covered_contention: int


def _prepare(ops, base, shift, nsets, made, served):
    """A segment's *ops* split for one FRAM read-cache geometry.

    Returns ``(lookups, data, hits, need)``. ``lookups`` are the
    segment's effects on the cache, in order: ``(False, tag, set)`` for
    a line read or fetched, ``(True, tag, set)`` for a line written
    (invalidated). ``data`` are the positions in *ops* of its effects on
    memory and the debug ports, and of the redirection-table reads and
    covered reads the walk acts on; ``None`` if that is every op but the
    fetches, so the segment's ``sram_ops``. None of this depends on the
    values the ops write, so it serves every segment of the same shape.
    ``hits``
    counts the lookups known to hit without one: a fetch's words past
    the first on each of its lines and, since nothing but the segment
    touches the cache while it is walked, a line the segment read or
    fetched and has not since displaced from its set or written. *base*
    places the segment's fetches; *shift* is the line size's log2 and
    *nsets* the set count. *served* is ``None``, or
    ``(line_bytes, cutoff)`` of a write-through data cache: it serves
    the covered reads, which are then data ops and no lookups, and
    ``need`` is the data-cache lines the segment's covered reads --
    and, with a sequential *cutoff*, its covered writes -- touch: the
    lines that, resident on entry, leave the data cache nothing to
    charge.
    *made* interns, across a replay's segments, each lookup (keyed by
    its tag, or by ``~tag`` for an invalidation) and each run of them.
    """
    lookups = []
    data = []
    need = set()
    hits = fetches = 0
    recent = [-1] * nsets  # per set, the line known most recently used
    for position, (op, addr, value, extra) in enumerate(ops):
        if served and op >= _RD_COVERED:
            if op == _RD_COVERED or served[1]:
                need.add(addr // served[0])
            if op == _RD_COVERED:
                data.append(position)
                continue
        if op == _FETCH or op == _RD_FRAM or op == _RD_COVERED:
            if op == _FETCH:
                fetches += 1
                first = (addr + base) >> shift
                last = (addr + base + 2 * value - 2) >> shift
                hits += value - 1 - (last - first)
            else:
                first = last = addr >> shift
                if extra >= 0:
                    data.append(position)
            for tag in range(first, last + 1):
                index = tag % nsets
                if recent[index] == tag:
                    hits += 1
                else:
                    recent[index] = tag
                    lookup = made.get(tag)
                    if lookup is None:
                        lookup = made[tag] = (False, tag, index)
                    lookups.append(lookup)
            continue
        if op in _FRAM_WRITES:
            tag = addr >> shift
            if recent[tag % nsets] == tag:
                recent[tag % nsets] = -1
            lookup = made.get(~tag)
            if lookup is None:
                lookup = made[~tag] = (True, tag, tag % nsets)
            lookups.append(lookup)
        data.append(position)
    lookups = tuple(lookups)
    return (
        made.setdefault(lookups, lookups) if lookups else None,
        None if len(data) + fetches == len(ops) else tuple(data),
        hits,
        tuple(need) if need else None,
    )


def _simulate(lines, lookups, nways):
    """Run *lookups* on the cache *lines*; returns their effect,
    ``(lines after, hits, misses, invalidates)``."""
    hits = misses = invalidates = 0
    for invalidate, tag, index in lookups:
        ways = lines[index]
        if invalidate:
            if tag in ways:
                ways.remove(tag)
                invalidates += 1
        elif ways and ways[-1] == tag:
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
    return _state(lines), hits, misses, invalidates


def _state(lines):
    """The cache's lines as one immutable value."""
    return tuple([tuple(ways) for ways in lines])


def _restore(lines, state):
    """Set the cache's lines to *state*, keeping each set's list."""
    for ways, saved in zip(lines, state):
        ways[:] = saved


def _walk_live(bus, ops, fram_fetch):
    """Walk one segment's *ops* (its ``fram_ops``) against the live FRAM
    read cache and data cache, as execution charges them.

    For a segment a data-cache miss may charge in: a fill or a gated
    bypass runs the runtime's instructions in the middle of the record,
    which restarts the bus's count of the instruction's FRAM touches.
    So each covered access goes to the runtime's ``app_read`` or
    ``app_write`` with ``bus._fram_touches`` as execution leaves it, and
    every other FRAM access takes the bus's own timing. The bus charges
    the stalls and the runtime tallies its accesses; what the stream's
    tallies hold for them is taken back here.
    """
    counters = bus.counters
    fc = bus.fram_cache
    line_bytes = fc.line_bytes
    cache = bus.data_cache
    memory = bus.memory
    wait = bus.wait_states
    penalty = bus.contention_penalty
    stall = 0  # the stalls the stream's tallies hold for the segment
    reads = writes = 0  # covered reads and writes
    touches = 0  # the record's FRAM touches, as the tallies count them
    for op, addr, value, extra in ops:
        if op == _FETCH:
            stall += penalty * max(touches - 1, 0)
            bus._fram_touches = touches = 0
            if fram_fetch:
                # ``Bus.account_fetch``'s timing, one lookup per line: a
                # word on the line the word before it read is a hit that
                # leaves the line most recently used.
                bus._fram_touches = touches = value
                first = addr // line_bytes
                last = (addr + 2 * value - 2) // line_bytes
                fc.hits += value - 1 - (last - first)
                counters.stall_cycles += penalty * (value - 1)
                for tag in range(first, last + 1):
                    if not fc.access(tag * line_bytes):
                        counters.stall_cycles += wait
        elif op == _RD_COVERED:
            reads += 1
            cache.app_read(addr, addr & 1)
        elif op == _RD_FRAM:
            touches += 1
            bus._fram_read_timing(addr)
        elif op == _WR_COVERED_W or op == _WR_COVERED_B:
            touches += 1
            writes += 1
            stall += wait
            cache.app_write(addr, value, op == _WR_COVERED_B)
        else:
            if op == _WR_FRAM_W or op == _WR_FRAM_B:
                touches += 1
                stall += wait
                bus._fram_write_timing(addr)
            if op == _WR_FRAM_W or op == _WR_SRAM_W:
                memory.write_word(addr, value)
            elif op == _WR_FRAM_B or op == _WR_SRAM_B:
                memory.write_byte(addr, value)
            else:
                bus._mmio_write(addr, value)
    stall += penalty * max(touches - 1, 0)
    counters.stall_cycles -= stall
    accesses = counters.access_counts
    accesses[access_slot(Attribution.APP, RegionKind.SRAM, READ)] -= reads
    accesses[access_slot(Attribution.APP, RegionKind.FRAM, WRITE)] -= writes


class _Record:
    """One distinct trace record, classified for the stream compiler."""

    __slots__ = (
        "key",
        "shape",
        "pc",
        "words",
        "cycles",
        "ops",
        "fram_ops",
        "touches",
        "fram_contention",
        "covered_reads",
        "covered_contention",
        "moves_stacks",
        "slots",
        "uses",
    )

    def __init__(
        self,
        key,
        shape,
        pc,
        words,
        cycles,
        ops,
        fram_ops,
        touches,
        covered_reads,
        moves_stacks,
        slots,
    ):
        self.key = key  # (func, fram_fetch)
        #: Equal for records equal but for the values they write.
        self.shape = shape
        self.pc = pc
        self.words = words
        self.cycles = cycles
        #: Its data-access ops, and the same behind its ``_FETCH``.
        self.ops = ops
        self.fram_ops = fram_ops
        self.touches = touches
        #: What fetching it from FRAM adds to the contention.
        self.fram_contention = words if touches else words - 1
        #: Its reads inside the data window, and ``fram_contention``
        #: when they touch no FRAM.
        self.covered_reads = covered_reads
        self.covered_contention = words if touches - covered_reads else words - 1
        self.moves_stacks = moves_stacks
        #: The ``access_counts`` slot of each data access.
        self.slots = slots
        self.uses = 0


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
    seconds: float  # event-walk wall clock, the segment split left out
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
        #: Wall clock of the walks' per-geometry segment split.
        self.prepare_seconds = 0.0
        self._artifacts = None
        self._compiled = None
        #: Per FRAM read-cache geometry, and data cache's line size and
        #: cutoff if one is attached: the segments split by
        #: :func:`_prepare`, by ops and by shape, and the tuples they
        #: share.
        self._prepared = {}

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
        so the next segment sees their effect, and before a record
        whose pc does not lie past the previous one's, so that a loop's
        iterations are equal segments. Each segment is::

            (func, fram_fetch, records, words, fram_contention,
             first_pc, sram_ops, fram_ops, tail, shape)

        ``sram_ops`` holds its data accesses alone (``None`` if there
        are none), for when it is fetched from SRAM; ``fram_ops`` puts
        a ``_FETCH`` before each record's data accesses, for when it is
        fetched from FRAM. Accesses inside the data window of a
        baseline-shaped stream get the covered opcodes. ``tail`` is its
        last three pcs, newest first.
        ``shape`` is equal for segments equal but for the values they
        write. Equal op lists and shapes are one object.
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
        # A write-through data cache replays over a baseline-shaped
        # stream, and its window depends only on the linked image.
        window = bytearray(0x10000)
        if self.system in ("baseline", DATACACHE):
            for lo, hi in data_window(linked):
                window[lo:hi] = bytes([1]) * (hi - lo)
        mmio_write_ops = {
            DEBUG_OUT_PORT: _WR_DEBUG,
            HALT_PORT: _WR_HALT,
            PUTC_PORT: _WR_PUTC,
        }

        app_row = Attribution.APP.slot * REGIONS
        fetch_ops = {}
        shapes = {}  # a record's pc, words and accesses without values

        def describe(record):
            """Classify one distinct record."""
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
            touches = covered_reads = 0
            moves_stacks = False
            ops = []
            slots = []
            for flags, addr, value in accesses:
                kind = kinds[addr]
                if kind is not fram and kind is not sram and kind is not mmio:
                    verb = "writes" if flags & ACC_WRITE else "reads"
                    raise ReplayError(
                        f"trace {verb} unmapped address {addr:#06x}"
                    )
                extra = -1
                if flags & ACC_WRITE:
                    slots.append(WRITE_BASE + app_row + kind.slot)
                    if kind is mmio:
                        op = mmio_write_ops.get(addr)
                    elif kind is fram:
                        touches += 1
                        if flags & ACC_BYTE:
                            op = _WR_COVERED_B if window[addr] else _WR_FRAM_B
                        elif window[addr]:
                            op = _WR_COVERED_W
                        else:
                            op = _WR_FRAM_W
                            if active_lo <= addr < active_hi:
                                extra = (addr - active_lo) >> 1
                    else:
                        op = _WR_SRAM_B if flags & ACC_BYTE else _WR_SRAM_W
                else:
                    slots.append(READ_BASE + app_row + kind.slot)
                    op = None
                    if kind is fram:
                        touches += 1
                        op = _RD_FRAM
                        if window[addr]:
                            op = _RD_COVERED
                            covered_reads += 1
                        elif redir_lo <= addr < redir_hi:
                            extra = (addr - redir_lo) >> 1
                if op is not None:
                    ops.append((op, addr, value, extra))
                    if extra >= 0:
                        moves_stacks = True
            fetch = fetch_ops.setdefault((pc, words), (_FETCH, pc, words, -1))
            shape = (pc, words, tuple([access[:2] for access in accesses]))
            return _Record(
                (func, fram_fetch),
                shapes.setdefault(shape, len(shapes)),
                pc,
                words,
                cycles,
                tuple(ops),
                (fetch, *ops),
                touches,
                covered_reads,
                moves_stacks,
                slots,
            )

        # Records repeat (loops): each distinct record is classified
        # once, and equal op lists are shared.
        described = {}
        interned = {}
        compiled = []
        run = []  # the open segment's records, described
        run_key = None  # its (func, fram_fetch)
        run_words = run_contention = 0

        def close():
            func, fram_fetch = run_key
            shape = tuple([known.shape for known in run])
            sram_ops = tuple(chain.from_iterable([known.ops for known in run]))
            fram_ops = tuple(chain.from_iterable([known.fram_ops for known in run]))
            sram_ops = sram_ops or None
            compiled.append(
                (
                    func,
                    fram_fetch,
                    len(run),
                    run_words,
                    run_contention,
                    run[0].pc,
                    interned.setdefault(sram_ops, sram_ops),
                    interned.setdefault(fram_ops, fram_ops),
                    tuple(known.pc for known in reversed(run[-3:])),
                    interned.setdefault(shape, shape),
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
            known = described.get(record)
            if known is None:
                known = described[record] = describe(record)
            known.uses += 1
            # A backward step (a loop's next iteration) also ends a
            # segment once it is long enough, so loops repeat as equal
            # segments.
            if run and (
                run_key != known.key
                or (len(run) >= _LOOP_SEGMENT and known.pc <= run[-1].pc)
            ):
                close()
            if not run:
                run_key = known.key
                run_words = run_contention = 0
            run.append(known)
            run_words += known.words
            run_contention += known.fram_contention
            if known.moves_stacks:
                close()
        if run:
            close()
        instructions = fetch_words = cycles_total = contention = 0
        covered_reads = covered_contention = 0
        data_accesses = Counter()
        for known in described.values():
            uses = known.uses
            instructions += uses
            fetch_words += uses * known.words
            cycles_total += uses * known.cycles
            if known.touches > 1:
                contention += uses * (known.touches - 1)
            left = known.touches - known.covered_reads
            if left > 1:
                covered_contention += uses * (left - 1)
            if known.key[1]:  # fetched from FRAM
                covered_contention += uses * known.covered_contention
            covered_reads += uses * known.covered_reads
            for slot in known.slots:
                data_accesses[slot] += uses
        compiled = (
            compiled,
            _StreamTotals(
                instructions=instructions,
                fetch_words=fetch_words,
                cycles=cycles_total,
                data_accesses=tuple(sorted(data_accesses.items())),
                fram_writes=data_accesses[WRITE_BASE + app_row + fram.slot],
                contention=contention,
                covered_reads=covered_reads,
                covered_contention=covered_contention,
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
        stream (baseline or datacache traces), replayed in the same walk
        as every other configuration; write-back is refused by validity
        because it decouples durable FRAM writes from the recorded store
        events. Invalid requests raise :class:`ReplayRefused` without
        touching the models.
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

        prepared = self.prepare_seconds
        started = time.perf_counter()
        hook_invocations = self._walk(board, runtime, compiled)
        seconds = time.perf_counter() - started
        seconds -= self.prepare_seconds - prepared

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
        """The hot loop: one pass over the compiled event stream.

        With a write-through data cache attached, the covered reads
        leave the split: a segment whose covered reads -- and, with a
        sequential cutoff, covered writes -- all have their lines
        resident on entry takes the split and the memo as any other, and
        its covered accesses cost the model's hit and nothing more. A
        hit touches no FRAM, and only a miss changes residency: writes
        never allocate. Any other segment is walked against the live
        caches (:func:`_walk_live`).
        """
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
        cache = bus.data_cache
        served = None
        sram_writes = 0  # the data cache's write hits
        if cache is not None:
            model = cache.model
            hit = model.hit
            miss = cache._miss
            config = model.config
            offset = config.line_bytes - 1
            served = (config.line_bytes, config.seq_cutoff_lines > 0)
            resident = {line.tag for line in model.resident_lines()}

        hits = misses = invals = 0
        contention = totals.contention if cache is None else totals.covered_contention
        fetch_fram = instr_fram = 0
        hook_invocations = 0
        prepared, shapes, made = self._prepared.setdefault(
            (shift, nsets, nways, served), ({}, {}, {})
        )
        effects = {}
        state = _state(lines)
        synced = True  # the cache's lines are ``state``

        for segment in stream:
            if segment is None:
                if not synced:
                    _restore(lines, state)
                proxy.pc_history = history
                regs[PC] = 0
                hook(proxy)
                hook_invocations += 1
                state = _state(lines)
                synced = True
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
                shape,
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
            key = id(ops)
            sram_ops = ops
            if fram_fetch:
                instr_fram += records
                fetch_fram += words
                if cache is None:  # else the covered totals hold it
                    contention += fram_contention
                ops = fram_ops
                key = (id(ops), base) if base else id(ops)
            if ops is None:
                if track_history:
                    history = (tail + history)[:3]
                continue
            split = prepared.get(key)
            if split is None:
                started = time.perf_counter()
                shape_key = (id(shape), base if fram_fetch else -1)
                split = shapes.get(shape_key)
                if split is None:
                    split = shapes[shape_key] = _prepare(
                        ops, base, shift, nsets, made, served
                    )
                lookups, positions, known_hits, need = split
                if positions is not None:
                    data_ops = tuple([ops[index] for index in positions])
                    split = (lookups, data_ops, known_hits, need)
                prepared[key] = split
                self.prepare_seconds += time.perf_counter() - started
            lookups, data_ops, known_hits, need = split
            if data_ops is None:
                data_ops = sram_ops
            if need is not None and not resident.issuperset(need):
                if not synced:
                    _restore(lines, state)
                _walk_live(bus, fram_ops, fram_fetch)
                state = _state(lines)
                synced = True
                resident = {line.tag for line in model.resident_lines()}
                continue
            hits += known_hits
            if lookups is not None:
                # The lookups' effect is a function of the cache's lines
                # on entry, and segments repeat: take it from the memo
                # when those lines have been seen before. The walk keeps
                # the lines as a value, ``state``, and writes them back
                # to the cache only before it runs lookups or a hook.
                # The memo lives for this walk and starts over at
                # _MEMO_ENTRIES, so lines that rarely repeat (a large
                # fully associative cache) cannot grow it without end.
                entry = (id(lookups), state)
                effect = effects.get(entry)
                if effect is None:
                    if not synced:
                        _restore(lines, state)
                        synced = True
                    if len(effects) >= _MEMO_ENTRIES:
                        effects.clear()
                    effect = effects[entry] = _simulate(lines, lookups, nways)
                else:
                    synced = False
                state = effect[0]
                hits += effect[1]
                misses += effect[2]
                invals += effect[3]
            if data_ops:
                pending = -1
                for op, addr, value, extra in data_ops:
                    if op == _WR_FRAM_W or op == _WR_SRAM_W:
                        if extra >= 0 and value < (
                            data[addr] | (data[addr + 1] << 8)
                        ):
                            stack = stacks[extra]
                            if stack:
                                stack.pop()
                        data[addr] = value & 0xFF
                        data[addr + 1] = value >> 8
                    elif op == _WR_COVERED_W or op == _WR_COVERED_B:
                        if cache is not None:
                            line = hit(addr, True)
                            if line is None:
                                miss(addr, True)  # no-allocate: a tally only
                            else:
                                sram_writes += 1
                                slot = line.sram + (addr & offset)
                                data[slot] = value & 0xFF
                                if op == _WR_COVERED_W:
                                    data[slot + 1] = value >> 8
                        data[addr] = value & 0xFF
                        if op == _WR_COVERED_W:
                            data[addr + 1] = value >> 8
                    elif op == _RD_COVERED:
                        hit(addr, False)
                    elif op == _RD_FRAM:
                        pending = extra
                    elif op == _WR_FRAM_B or op == _WR_SRAM_B:
                        data[addr] = value
                    elif op == _WR_DEBUG:
                        debug_words.append(value)
                    elif op == _WR_PUTC:
                        output_chars.append(chr(value & 0xFF))
                    else:  # _WR_HALT
                        if cache is not None:
                            cache.on_halt()
                        bus.halted = True
                if pending >= 0:
                    address = redir_base + (pending << 1)
                    target = data[address] | (data[address + 1] << 8)
                    if target == handler:
                        if not synced:
                            _restore(lines, state)
                        regs[PC] = 0
                        hook(proxy)
                        hook_invocations += 1
                        target = regs[PC]
                        state = _state(lines)
                        synced = True
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
        if cache is not None:
            # The fast path's covered reads were hits; the live walk
            # took back the others.
            accesses[access_slot(app, fram, READ)] -= totals.covered_reads
            accesses[access_slot(app, sram, READ)] += totals.covered_reads
        instructions = counters.instruction_counts
        instructions[instruction_slot(app, fram)] += instr_fram
        instructions[instruction_slot(app, sram)] += (
            totals.instructions - instr_fram
        )
        counters.cycle_counts[app.slot] += totals.cycles
        accesses[access_slot(Attribution.RUNTIME, sram, WRITE)] += sram_writes
        counters.stall_cycles += (
            misses * wait
            + totals.fram_writes * wait
            + contention * bus.contention_penalty
        )
        if not synced:
            _restore(lines, state)
        fc.hits += hits
        fc.misses += misses
        fc.invalidates += invals
        return hook_invocations
