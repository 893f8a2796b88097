"""Per-instruction attribution: profiles and the call tree.

The collector wraps ``cpu.step`` (the same detachable-decorator idiom
:class:`~repro.machine.tracelog.TraceLog` uses on the bus) and, for each
executed instruction or native-hook invocation, diffs the board's
counters to attribute cycles, stalls, attribution-split unstalled
cycles, and FRAM/SRAM traffic to the function owning the current PC.
Nothing in the machine layer changes, so a board without a collector
attached runs the original, unwrapped hot path -- zero overhead.

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
from repro.machine.trace import Attribution

#: Cycle-tally slots, read eight times per step.
_APP = Attribution.APP.slot
_RUNTIME = Attribution.RUNTIME.slot
_MEMCPY = Attribution.MEMCPY.slot
_STARTUP = Attribution.STARTUP.slot


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
        return self.cycles + sum(
            child.inclusive for child in self.children.values()
        )

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
    """Wraps a board's CPU step and bus to attribute execution."""

    def __init__(self, board, funcmap, timeline=None):
        self.board = board
        self.cpu = board.cpu
        self.bus = board.bus
        self.counters = board.counters
        self.funcmap = funcmap
        self.timeline = timeline
        self.profiles = {}  # name -> FunctionProfile
        self.root = CallNode("<root>")
        self._stack = []
        self._original_step = None
        self._original_bus = None
        self._finished = False
        # Bus traffic tallies, diffed per instruction.
        self._fram_reads = 0
        self._fram_writes = 0
        self._sram = 0

    # -- attachment ----------------------------------------------------------------

    def attach(self):
        """Wrap the CPU step and bus access methods (idempotent)."""
        if self._original_step is not None:
            return self
        self._original_step = self.cpu.step
        self._wrap_bus()
        self.cpu.step = self._step
        return self

    def detach(self):
        if self._original_step is None:
            return self
        del self.cpu.step  # restore the class method
        self._original_step = None
        self._unwrap_bus()
        return self

    def __enter__(self):
        return self.attach()

    def __exit__(self, *exc):
        self.detach()
        self.finish()
        return False

    def _wrap_bus(self):
        bus = self.bus
        kinds = bus._kinds
        fram, sram = RegionKind.FRAM, RegionKind.SRAM
        self._original_bus = (
            bus.fetch_word,
            bus.account_fetch,
            bus.read,
            bus.write,
        )
        orig_fetch, orig_account, orig_read, orig_write = self._original_bus

        def fetch_word(address):
            kind = kinds[address & 0xFFFF]
            if kind is fram:
                self._fram_reads += 1
            elif kind is sram:
                self._sram += 1
            return orig_fetch(address)

        def account_fetch(address, words):
            kind = kinds[address & 0xFFFF]
            if kind is fram:
                self._fram_reads += words
            elif kind is sram:
                self._sram += words
            return orig_account(address, words)

        def read(address, byte=False):
            kind = kinds[address & 0xFFFF]
            if kind is fram:
                self._fram_reads += 1
            elif kind is sram:
                self._sram += 1
            return orig_read(address, byte=byte)

        def write(address, value, byte=False):
            kind = kinds[address & 0xFFFF]
            if kind is fram:
                self._fram_writes += 1
            elif kind is sram:
                self._sram += 1
            return orig_write(address, value, byte=byte)

        bus.fetch_word = fetch_word
        bus.account_fetch = account_fetch
        bus.read = read
        bus.write = write

    def _unwrap_bus(self):
        if self._original_bus is None:
            return
        bus = self.bus
        bus.fetch_word, bus.account_fetch, bus.read, bus.write = self._original_bus
        self._original_bus = None

    # -- the wrapped step ----------------------------------------------------------

    def _step(self):
        cpu = self.cpu
        regs = cpu.regs
        counters = self.counters
        cycles = counters.cycle_counts

        pc = regs[PC]
        name = self.funcmap.resolve(pc)
        self._sync_stack(name, regs[SP])

        app0 = cycles[_APP]
        run0 = cycles[_RUNTIME]
        mem0 = cycles[_MEMCPY]
        start0 = cycles[_STARTUP]
        stall0 = counters.stall_cycles
        fr0, fw0, sr0 = self._fram_reads, self._fram_writes, self._sram
        # Board-level instruction count: real executed instructions plus
        # the runtime's modelled (cost-charged) ones, so per-function
        # sums match RunResult.instructions exactly.
        retired0 = counters.total_instructions

        alive = self._original_step()

        profile = self.profiles.get(name)
        if profile is None:
            profile = self.profiles[name] = FunctionProfile(name)
        app = cycles[_APP] - app0 + cycles[_STARTUP] - start0
        run = cycles[_RUNTIME] - run0
        mem = cycles[_MEMCPY] - mem0
        stalls = counters.stall_cycles - stall0
        total = app + run + mem + stalls
        profile.instructions += counters.total_instructions - retired0
        profile.cycles += total
        profile.stalls += stalls
        profile.app_cycles += app
        profile.runtime_cycles += run
        profile.memcpy_cycles += mem
        profile.fram_reads += self._fram_reads - fr0
        profile.fram_writes += self._fram_writes - fw0
        profile.sram_accesses += self._sram - sr0
        if self._stack:
            self._stack[-1].node.cycles += total
        return alive

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
