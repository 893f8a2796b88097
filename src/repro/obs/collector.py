"""Per-function attribution: profiles and the call tree.

The collector subscribes to ``on_block`` through the observation seam
(:mod:`repro.machine.observe`), which runs before each block, step and
hook -- often enough that between two calls the PC stays in one
function and SP does not rise -- and resolves the PC there to the
function owning it. A *segment* is a run of execution with the same
call-stack top; when the top changes (and on detach) the collector
diffs the tallies the board's counters already keep -- cycles by
attribution, stalls, instructions, FRAM reads, FRAM writes and SRAM
traffic -- and attributes the growth to the segment's function. The
counters are exact at each ``on_block`` and sit below the data cache,
so the traffic is exactly what :class:`~repro.machine.board.RunResult`
reports; a crashed or fuse-cut run still attributes its partial last
step on detach.

Call/return edges are inferred from PC/SP movement:

* a frame is pushed when execution enters a different function at a
  lower stack pointer (a CALL pushed the return address);
* frames are popped when SP rises above a frame's entry SP (RET popped
  the return address -- multi-level pops handle trampolines);
* a transfer to another function at the *same* SP replaces the top
  frame: that is the miss handler branching to the function it just
  cached, or a block-cache stub chain -- a continuation, not a call.

This yields a call-stack track for the Perfetto export and an
inclusive/exclusive call tree for flamegraph-style reports, and the
exclusive cycle attribution sums *exactly* to the run's total cycles.
"""

from dataclasses import dataclass, field

from repro.isa.registers import PC, SP
from repro.machine.memory import RegionKind
from repro.machine.observe import observe, unobserve
from repro.machine.trace import FETCH, READ, WRITE, Attribution, access_slot

_APP = Attribution.APP.slot
_RUNTIME = Attribution.RUNTIME.slot
_MEMCPY = Attribution.MEMCPY.slot
_STARTUP = Attribution.STARTUP.slot


def _slots(kind, *types):
    """Every attribution's ``access_counts`` slots of *kind* and *types*."""
    return tuple(access_slot(a, kind, t) for a in Attribution for t in types)


_FRAM_READS = _slots(RegionKind.FRAM, FETCH, READ)
_FRAM_WRITES = _slots(RegionKind.FRAM, WRITE)
_SRAM = _slots(RegionKind.SRAM, FETCH, READ, WRITE)


def _tallies(counters):
    """The running totals a segment's attribution diffs."""
    cycles = counters.cycle_counts
    accesses = counters.access_counts
    return (
        cycles[_APP] + cycles[_STARTUP],
        cycles[_RUNTIME],
        cycles[_MEMCPY],
        counters.stall_cycles,
        sum(counters.instruction_counts),
        sum(accesses[slot] for slot in _FRAM_READS),
        sum(accesses[slot] for slot in _FRAM_WRITES),
        sum(accesses[slot] for slot in _SRAM),
    )


@dataclass
class FunctionProfile:
    """Everything attributed to one function over a traced run."""

    name: str
    instructions: int = 0  # executed + modelled (cost-charged) instructions
    calls: int = 0  # frames entered
    cycles: int = 0  # total (unstalled + stalls)
    stalls: int = 0
    app_cycles: int = 0  # unstalled, by Figure 8 attribution
    runtime_cycles: int = 0
    memcpy_cycles: int = 0
    fram_reads: int = 0  # logical FRAM words (fetches + data reads)
    fram_writes: int = 0
    sram_accesses: int = 0

    @property
    def fram_accesses(self):
        return self.fram_reads + self.fram_writes

    def energy_nj(self, model):
        """This function's share of the linear energy model."""
        return (
            self.cycles * model.core_nj_per_cycle
            + self.fram_reads * model.fram_read_nj
            + self.fram_writes * model.fram_write_nj
            + self.sram_accesses * model.sram_access_nj
        )

    def as_dict(self, energy_model=None):
        record = {
            "name": self.name,
            "instructions": self.instructions,
            "calls": self.calls,
            "cycles": self.cycles,
            "stalls": self.stalls,
            "app_cycles": self.app_cycles,
            "runtime_cycles": self.runtime_cycles,
            "memcpy_cycles": self.memcpy_cycles,
            "fram_accesses": self.fram_accesses,
            "fram_writes": self.fram_writes,
            "sram_accesses": self.sram_accesses,
        }
        if energy_model is not None:
            record["energy_nj"] = self.energy_nj(energy_model)
        return record


@dataclass
class CallNode:
    """One node of the inclusive/exclusive call tree."""

    name: str
    calls: int = 0
    cycles: int = 0  # exclusive
    children: dict = field(default_factory=dict)

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = CallNode(name)
        return node

    @property
    def inclusive(self):
        return self.cycles + sum(child.inclusive for child in self.children.values())

    def as_dict(self):
        return {
            "name": self.name,
            "calls": self.calls,
            "exclusive_cycles": self.cycles,
            "inclusive_cycles": self.inclusive,
            "children": [
                child.as_dict()
                for child in sorted(
                    self.children.values(),
                    key=lambda node: node.inclusive,
                    reverse=True,
                )
            ],
        }


class _Frame:
    __slots__ = ("name", "entry_sp", "node")

    def __init__(self, name, entry_sp, node):
        self.name = name
        self.entry_sp = entry_sp
        self.node = node


class Collector:
    """Attributes a board's execution to the functions it runs."""

    def __init__(self, board, funcmap, timeline=None):
        self.board = board
        self.cpu = board.cpu
        self.funcmap = funcmap
        self.timeline = timeline
        self.profiles = {}  # name -> FunctionProfile
        self.root = CallNode("<root>")
        self._stack = []
        self._segment = None  # the frame the open segment runs in
        self._marks = None  # the counters' tallies when it opened
        self._finished = False
        # The seam handler, bound per instance so a class-level wrapper
        # of _step (a host profiler's) is the one that runs.
        self.on_block = self._step

    # -- attachment ----------------------------------------------------------------

    def attach(self):
        """Subscribe to the board's blocks and steps (idempotent)."""
        observe(self.board, self)
        return self

    def detach(self):
        """Attribute the open segment and unsubscribe (idempotent)."""
        self._flush()
        self._segment = None
        unobserve(self.board, self)
        return self

    # -- attribution ---------------------------------------------------------------

    def _step(self):
        regs = self.cpu.regs
        name = self.funcmap.resolve(regs[PC])
        sp = regs[SP]
        top = self._segment
        if top is not None and top.name == name and sp <= top.entry_sp:
            return  # still in the open segment's frame: nothing changes
        self._sync_stack(name, sp)
        top = self._stack[-1]
        if top is not self._segment:
            self._flush()
            self._segment = top

    def _flush(self):
        """Attribute the counters' growth since the segment opened to it."""
        marks = _tallies(self.board.counters)
        frame = self._segment
        if frame is not None:
            app, run, mem, stalls, instructions, fram_reads, fram_writes, sram = (
                now - then for now, then in zip(marks, self._marks)
            )
            total = app + run + mem + stalls
            profile = self.profiles[frame.name]
            profile.instructions += instructions
            profile.cycles += total
            profile.stalls += stalls
            profile.app_cycles += app
            profile.runtime_cycles += run
            profile.memcpy_cycles += mem
            profile.fram_reads += fram_reads
            profile.fram_writes += fram_writes
            profile.sram_accesses += sram
            frame.node.cycles += total
        self._marks = marks

    def _sync_stack(self, name, sp):
        stack = self._stack
        if not stack:
            self._push(name, sp)
            return
        top = stack[-1]
        # Returns: SP rose past the frame's entry SP (the return address
        # was popped). The root frame never pops -- nothing to return to.
        while len(stack) > 1 and sp > top.entry_sp:
            self._pop(top)
            stack.pop()
            top = stack[-1]
        if top.name != name:
            if sp == top.entry_sp and len(stack) > 1:
                # Same-stack transfer: handler -> cached copy, stub chain.
                # A continuation of the pending call, not a new one.
                self._pop(top)
                stack.pop()
            self._push(name, sp)
        elif sp > top.entry_sp:
            # Root frame watching crt0 initialise the stack pointer.
            top.entry_sp = sp

    def _push(self, name, sp):
        stack = self._stack
        parent = stack[-1].node if stack else self.root
        node = parent.child(name)
        node.calls += 1
        frame = _Frame(name, sp, node)
        stack.append(frame)
        profile = self.profiles.get(name)
        if profile is None:
            profile = self.profiles[name] = FunctionProfile(name)
        profile.calls += 1
        if self.timeline is not None:
            self.timeline.record("call", func=name)

    def _pop(self, frame):
        if self.timeline is not None:
            self.timeline.record("return", func=frame.name)

    # -- teardown ------------------------------------------------------------------

    def finish(self):
        """Close open frames (emitting their return events); idempotent."""
        if self._finished:
            return self
        self._finished = True
        while self._stack:
            self._pop(self._stack.pop())
        return self

    # -- views ---------------------------------------------------------------------

    @property
    def total_cycles(self):
        return sum(profile.cycles for profile in self.profiles.values())

    def sorted_profiles(self):
        return sorted(
            self.profiles.values(), key=lambda profile: profile.cycles, reverse=True
        )
