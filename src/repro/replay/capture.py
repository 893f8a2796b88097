"""Trace capture: run once through the real CPU, record the event stream.

A :class:`_Recorder` subscribes to the machine's observation seam
(:mod:`repro.machine.observe`) and rebuilds the per-instruction
structure the CPU's step loop implies:

``on_begin`` (application attribution only -- every hook charge and
runtime access happens inside ``bus.attributed(...)`` blocks and is
deliberately *not* recorded, because replay re-runs the real runtime)
opens a record at the current PC; ``on_read``/``on_write`` append data
accesses (writes keep their values); ``on_retire`` closes the record
with the instruction's unstalled cycles and the application fetch words
the counters gained since ``on_begin``.

For SwapRAM targets the recorder additionally tracks **activations** --
live executions of cacheable functions -- so instruction addresses
inside a cached copy (or an NVM fallback) are stored
*function-relative*. An activation opens when a call site reads the
function's redirection entry (the redirect value, or the PC the miss
handler's hook leaves, is the base) and closes when the call site's
``SUB`` write drops the function's active counter. This is exactly the
state a replay under a *different* policy or cache limit reconstructs
for itself, which is what makes one trace serve the whole ablation grid.

Block-cache targets record plain absolute addresses plus explicit hook
markers: chaining rewrites application branches in place (cache state
feeds back into the executed stream), so those traces only replay
against identical cache geometry -- the validity checker enforces it.
"""

from dataclasses import asdict

from repro.core.runtime import SwapRamRuntime
from repro.blockcache.runtime import BlockCacheRuntime
from repro.datacache.runtime import DataCacheRuntime
from repro.isa.registers import PC
from repro.machine.cpu import RunawayError
from repro.machine.memory import RegionKind
from repro.machine.observe import observe, unobserve
from repro.machine.trace import FETCH, Attribution, access_slot
from repro.replay.schema import (
    ACC_BYTE,
    ACC_VALUE,
    ACC_WRITE,
    build_document,
    image_sha256,
)

_APP = Attribution.APP
_APP_SRAM_FETCH = access_slot(_APP, RegionKind.SRAM, FETCH)
_APP_FRAM_FETCH = access_slot(_APP, RegionKind.FRAM, FETCH)


BASELINE = "baseline"
SWAPRAM = "swapram"
BLOCK = "block"
DATACACHE = "datacache"


class CaptureError(RuntimeError):
    """The run cannot be captured as a well-formed trace."""


def classify(target):
    """``(kind, board, runtime)`` for a built system or bare board."""
    runtime = getattr(target, "runtime", None)
    board = getattr(target, "board", target)
    if runtime is None:
        return BASELINE, board, None
    if isinstance(runtime, SwapRamRuntime):
        return SWAPRAM, board, runtime
    if isinstance(runtime, BlockCacheRuntime):
        return BLOCK, board, runtime
    if isinstance(runtime, DataCacheRuntime):
        # The data cache intercepts at the bus, below the observation
        # seam, so the recorded stream is the *application* stream --
        # baseline-shaped regardless of hits, fills or writebacks.
        return DATACACHE, board, runtime
    raise CaptureError(f"cannot capture system with runtime {type(runtime)!r}")


class _Recorder:
    """Seam subscriber accumulating the canonical event stream."""

    def __init__(self, kind, board, runtime):
        self.kind = kind
        self.board = board
        self.bus = board.bus
        self._regs = board.cpu.regs
        self.records = []
        self.cache_window_writes = 0
        self._cur_acc = None
        self._cur_pc = 0
        self._cur_fetched = 0
        self._cur_act = None  # (func_id, base, end), SwapRAM only

        self._hook_addr = runtime.entry_addr if kind == BLOCK else None
        self._swapram = kind == SWAPRAM
        if self._swapram:
            if len(runtime.meta.functions) > 0xFF:
                raise CaptureError("more than 255 cacheable functions")
            count = len(runtime.meta.functions)
            self._hook_addr = runtime.handler_addr
            self._redir_lo = runtime.redir_base
            self._redir_hi = runtime.redir_base + 2 * count
            self._active_lo = runtime.active_base
            self._active_hi = runtime.active_base + 2 * count
            self._sizes = [m.size for m in runtime.meta.functions]
            self._acts = [[] for _ in range(count)]
            self._pending = None
            self._window = (board.linked.cache_base, board.bus.memory_map.sram.end)
        # DATACACHE installs no CPU hook: its interception lives inside
        # bus.read/bus.write, *below* the seam, so nothing to mark.

    # -- activation tracking (SwapRAM) -----------------------------------------

    def _push(self, func_id, base):
        self._acts[func_id].append((base, base + self._sizes[func_id]))

    def _pop(self, func_id):
        stack = self._acts[func_id]
        if stack:
            base, _end = stack.pop()
            cur = self._cur_act
            if cur is not None and cur[0] == func_id and cur[1] == base:
                self._cur_act = None

    def _map_pc(self, pc):
        """Resolve *pc* to (func_id, offset) within a live activation,
        or (-1, pc) when it executes position-independently. The
        caller has already tried the current activation."""
        for func_id, stack in enumerate(self._acts):
            for base, end in stack:
                if base <= pc < end:
                    self._cur_act = (func_id, base, end)
                    return func_id, pc - base
        self._cur_act = None
        return -1, pc

    # -- seam handlers ---------------------------------------------------------------

    def on_begin(self):
        if self.bus.attribution is _APP:
            if self._cur_acc is not None:
                raise CaptureError("instruction record left open")
            self._cur_pc = self._regs[PC]
            # Application words fetched so far; the retire diffs it.
            counts = self.board.counters.access_counts
            self._cur_fetched = counts[_APP_SRAM_FETCH] + counts[_APP_FRAM_FETCH]
            self._cur_acc = []

    def on_read(self, address, byte):
        if self.bus.attribution is not _APP:
            return
        acc = self._cur_acc
        if acc is None:
            raise CaptureError(
                f"application read outside an instruction at {address:#06x}"
            )
        acc.append((ACC_BYTE if byte else 0, address & 0xFFFF, 0))
        if self._swapram and self._redir_lo <= address < self._redir_hi:
            memory = self.bus.memory
            value = memory.read_byte(address) if byte else memory.read_word(address)
            func_id = (address - self._redir_lo) >> 1
            if value == self._hook_addr:
                self._pending = func_id
            else:
                self._push(func_id, value)

    def on_write(self, address, value, byte):
        if self.bus.attribution is not _APP:
            return
        acc = self._cur_acc
        if acc is None:
            raise CaptureError(
                f"application write outside an instruction at {address:#06x}"
            )
        masked = value & (0xFF if byte else 0xFFFF)
        flags = ACC_WRITE | ACC_VALUE | (ACC_BYTE if byte else 0)
        acc.append((flags, address & 0xFFFF, masked))
        if self._swapram:
            if not byte and self._active_lo <= address < self._active_hi:
                if masked < self.bus.memory.read_word(address):
                    self._pop((address - self._active_lo) >> 1)
            if self._window[0] <= address < self._window[1]:
                self.cache_window_writes += 1

    def on_retire(self, attribution, region_kind, cycles):
        if attribution is not _APP:
            return
        acc = self._cur_acc
        if acc is None:
            raise CaptureError("instruction retired without a record")
        pc = self._cur_pc
        cur = self._cur_act
        if cur is not None and cur[1] <= pc < cur[2]:
            func, offset = cur[0], pc - cur[1]
        elif self._swapram:
            func, offset = self._map_pc(pc)
        else:
            func, offset = -1, pc
        counts = self.board.counters.access_counts
        words = counts[_APP_SRAM_FETCH] + counts[_APP_FRAM_FETCH] - self._cur_fetched
        self.records.append((func, offset, words, cycles, tuple(acc)))
        self._cur_acc = None

    def on_hook(self, address, cpu):
        if address != self._hook_addr:
            return
        if not self._swapram:
            # A block-cache entry. Its charged instructions are
            # runtime-attributed, so none were recorded before the
            # marker.
            self.records.append(None)
        elif self._pending is not None:
            func_id = self._pending
            self._pending = None
            self._push(func_id, cpu.regs[PC])


def capture_run(
    target,
    source,
    benchmark=None,
    scale=1,
    capture_config=None,
    max_instructions=50_000_000,
):
    """Run *target* (a built system or baseline board) under capture.

    Returns ``(TraceDocument, RunResult)``. *source* is the mini-C text
    the system was built from -- embedded in the header so a replay
    engine can rebuild the system without any out-of-band state.
    """
    from repro.tracing.runtime import current_recorder
    from repro.tracing.span import NULL_SPAN

    kind, board, runtime = classify(target)
    recorder = observe(board, _Recorder(kind, board, runtime))
    tracing = current_recorder()
    try:
        # Raw (det=False): captures are memoised per process, so whether
        # one happens depends on which units a worker served before.
        with (
            tracing.span(
                "replay.capture",
                det=False,
                attrs={"benchmark": benchmark, "system": kind},
            )
            if tracing
            else NULL_SPAN
        ):
            try:
                result = target.run(max_instructions=max_instructions)
            except RunawayError as error:
                raise CaptureError(f"run did not halt: {error}") from error
    finally:
        unobserve(board, recorder)

    config = dict(capture_config or {})
    if kind == SWAPRAM:
        policy = runtime.policy
        config.setdefault("policy", policy.name)
        config.setdefault("cache_base", policy.base)
        config.setdefault("cache_size", policy.size)
    elif kind == BLOCK:
        config.setdefault("cache_base", runtime.cache_base)
        config.setdefault("cache_size", runtime.num_slots * runtime.slot_bytes)
        config.setdefault("slot_bytes", runtime.slot_bytes)
        config.setdefault("num_slots", runtime.num_slots)
    elif kind == DATACACHE:
        for name, value in runtime.config.as_dict().items():
            config.setdefault(name, value)

    header = {
        "system": kind,
        "plan": board.linked.plan.name,
        "plan_config": asdict(board.linked.plan),
        "scale": scale,
        "benchmark": benchmark,
        "source": source,
        "frequency_mhz": board.frequency_mhz,
        "image_sha256": image_sha256(board.image),
        "capture_config": config,
        "capture_result": result.as_dict(),
        "capture_stats": (
            runtime.stats.as_dict() if runtime is not None else None
        ),
        "app_writes_cache_window": recorder.cache_window_writes > 0,
    }
    return build_document(header, recorder.records), result


def capture_source(
    source,
    system=SWAPRAM,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    benchmark=None,
    policy="queue",
    cache_limit=None,
    slot_bytes=48,
    datacache=None,
    max_instructions=50_000_000,
):
    """Build a system for *source* and capture one run of it.

    *system* is any :mod:`repro.systems` name; the knobs it does not
    take are ignored. Returns ``(TraceDocument, system, RunResult)`` so
    callers can also inspect the executed system's statistics directly.
    *datacache* is a :class:`~repro.datacache.cache.DataCacheConfig`
    overriding a data-cache system's own (``None`` keeps it).
    """
    from repro import systems
    from repro.toolchain import PLANS

    spec = systems.spec(system)
    knobs = {"policy": policy, "cache_limit": cache_limit, "slot_bytes": slot_bytes}
    knobs = {name: value for name, value in knobs.items() if name in spec.options}
    target = systems.build(
        system, source, PLANS[plan_name], frequency_mhz, config=datacache, **knobs
    )
    capture_config = {}
    if "cache_limit" in spec.options:
        capture_config["cache_limit"] = cache_limit

    document, result = capture_run(
        target,
        source,
        benchmark=benchmark,
        scale=scale,
        capture_config=capture_config,
        max_instructions=max_instructions,
    )
    return document, target, result
