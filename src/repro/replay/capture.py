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

from repro.isa.registers import PC
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


SWAPRAM = "swapram"
BLOCK = "block"
DATACACHE = "datacache"


class CaptureError(RuntimeError):
    """The run cannot be captured as a well-formed trace."""


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
        # bus.read/bus.write, *below* the seam, so the recorded stream
        # is the *application* stream -- baseline-shaped regardless of
        # hits, fills or writebacks -- and there is nothing to mark.

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

    def finish(self, result):
        unobserve(self.board, self)

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


def capture(spec, benchmark=None):
    """Run a :class:`~repro.systems.RunSpec` once under capture.

    Returns ``(TraceDocument, System, RunResult)``. The header embeds
    the spec's source, so a replay engine can rebuild the system
    without any out-of-band state; *benchmark* names the program in it.
    Raises ``FitError`` when the binary does not fit and
    :class:`CaptureError` when the run does not halt.
    """
    from repro.systems import run
    from repro.tracing.runtime import current_recorder
    from repro.tracing.span import NULL_SPAN

    kind = spec.entry.capture_kind

    def record(system):
        return observe(system.board, _Recorder(kind, system.board, system.runtime))

    tracing = current_recorder()
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
        outcome = run(spec, (record,))
    if outcome.dnf == "fit":
        raise outcome.error
    if outcome.dnf:
        raise CaptureError(f"run did not halt: {outcome.error}") from outcome.error
    recorder = outcome.sessions[0]
    board, runtime = recorder.board, outcome.system.runtime

    config = {}
    if "cache_limit" in spec.entry.options:
        config["cache_limit"] = spec.cache_limit
    if kind == SWAPRAM:
        policy = runtime.policy
        config["policy"] = policy.name
        config["cache_base"] = policy.base
        config["cache_size"] = policy.size
    elif kind == BLOCK:
        config["cache_base"] = runtime.cache_base
        config["cache_size"] = runtime.num_slots * runtime.slot_bytes
        config["slot_bytes"] = runtime.slot_bytes
        config["num_slots"] = runtime.num_slots
    elif kind == DATACACHE:
        config.update(runtime.config.as_dict())

    result = outcome.result
    header = {
        "system": kind,
        "plan": board.linked.plan.name,
        "plan_config": asdict(board.linked.plan),
        "scale": spec.scale,
        "benchmark": benchmark,
        "source": spec.source,
        "frequency_mhz": board.frequency_mhz,
        "image_sha256": image_sha256(board.image),
        "capture_config": config,
        "capture_result": result.as_dict(),
        "capture_stats": (
            runtime.stats.as_dict() if runtime is not None else None
        ),
        "app_writes_cache_window": recorder.cache_window_writes > 0,
    }
    return build_document(header, recorder.records), outcome.system, result


def capture_source(
    source,
    system=SWAPRAM,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    benchmark=None,
    policy=None,
    cache_limit=None,
    slot_bytes=None,
    datacache=None,
    max_instructions=50_000_000,
):
    """Build a system for *source* and capture one run of it.

    *system* is any :mod:`repro.systems` name; a knob it does not take
    raises ``ValueError``, and ``None`` keeps the builder's default.
    Returns ``(TraceDocument, system, RunResult)`` so callers can also
    inspect the executed system's statistics directly. *datacache* is
    a :class:`~repro.datacache.cache.DataCacheConfig` overriding a
    data-cache system's own (``None`` keeps it).
    """
    from repro.systems import RunSpec

    spec = RunSpec(
        source,
        system,
        policy=policy,
        cache_limit=cache_limit,
        slot_bytes=slot_bytes,
        datacache=datacache,
        plan=plan_name,
        mhz=frequency_mhz,
        scale=scale,
        max_instructions=max_instructions,
    )
    return capture(spec, benchmark)
