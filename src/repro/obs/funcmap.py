"""Exact PC -> function attribution.

The static half of the map comes from the linked program: every
function's entry symbol plus its deterministic instruction-length sum
gives a closed address interval (the same arithmetic the linker's
``measure_sections`` relies on). The runtime areas the cost model
charges against (``__sr_miss_handler``, ``__bb_runtime``, the stub
section) become pseudo-functions so handler time is attributed rather
than lost.

The dynamic half covers self-modifying execution: addresses inside the
SRAM cache window are resolved through the live runtime state (the
SwapRAM policy's node list, the block cache's slot mirror), so an
instruction executing from a cached copy is attributed to the function
that owns those bytes *at that moment*.
"""

from bisect import bisect_right

from repro.isa.encoding import instruction_length
from repro.isa.instructions import Instruction


class FunctionMap:
    """Interval map from PC to function name, with dynamic regions."""

    def __init__(self):
        self._intervals = []  # (start, end, name), sorted after seal()
        self._starts = []
        self._dynamic = []  # (start, end, resolver(address) -> name)
        self._hot = (1, 0, "")  # last static hit; start > end == never

    # -- construction ----------------------------------------------------------

    def add_function(self, name, start, size):
        if size > 0:
            self._intervals.append((start, start + size, name))
        return self

    def add_region(self, name, start, size):
        """A pseudo-function (runtime area, stub section...)."""
        return self.add_function(name, start, size)

    def add_dynamic(self, start, end, resolver):
        """Resolve [start, end) through *resolver* at lookup time."""
        self._dynamic.append((start, end, resolver))
        return self

    def seal(self):
        self._intervals.sort()
        self._starts = [interval[0] for interval in self._intervals]
        return self

    # -- lookup (hot path while tracing) ------------------------------------------

    def resolve(self, address):
        start, end, name = self._hot
        if start <= address < end:
            return name
        for start, end, resolver in self._dynamic:
            if start <= address < end:
                return resolver(address)
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            interval = self._intervals[index]
            if interval[0] <= address < interval[1]:
                self._hot = interval
                return interval[2]
        return f"<unmapped:{address:#06x}>"

    def functions(self):
        """Static (start, end, name) triples, address-ordered."""
        return list(self._intervals)


def _function_size(function):
    return sum(
        instruction_length(item)
        for item in function.items
        if isinstance(item, Instruction)
    )


def _static_map(linked):
    """Map every function of a linked program by symbol + length sum."""
    if getattr(linked, "program", None) is None:
        raise ValueError(
            "linked program does not carry its assembly Program; "
            "build it through repro.toolchain.linker.link()"
        )
    symbols = linked.image.symbols
    funcmap = FunctionMap()
    for function in linked.program.functions:
        start = symbols.get(function.name)
        if start is None:
            continue
        funcmap.add_function(function.name, start, _function_size(function))
    return funcmap


class _SwapRamCacheResolver:
    """Attribute SRAM cache addresses to the function cached there.

    Each address is resolved by a scan of the policy's nodes once, then
    memoised until the node list changes (``policy.version`` moves), so
    runs of instructions from the same cache state are O(1) each.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self._version = -1
        self._names = {}

    def __call__(self, address):
        policy = self.runtime.policy
        if policy.version != self._version:
            self._names = {}
            self._version = policy.version
        name = self._names.get(address)
        if name is None:
            name = "<cache-free>"
            for node in policy.nodes:
                if node.address <= address < node.end:
                    name = self.runtime.by_id[node.func_id].name
                    break
            self._names[address] = name
        return name


class _BlockSlotResolver:
    """Attribute block-cache slot addresses to the block's function.

    The slot -> block reverse map is rebuilt lazily whenever the
    runtime's miss/flush counters move, so lookups stay O(1) along runs
    of instructions from the same cache state.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self._version = -1
        self._by_slot = {}

    def __call__(self, address):
        runtime = self.runtime
        stats = runtime.stats
        version = stats.misses + stats.flushes
        if version != self._version:
            self._by_slot = {
                slot: runtime.meta.blocks[block_id].function
                for block_id, slot in runtime.cached_blocks.items()
            }
            self._version = version
        slot = (address - runtime.cache_base) // runtime.slot_bytes
        return self._by_slot.get(slot, "<slot-free>")


def map_for_board(board):
    """PC map for a plain baseline board (static code only)."""
    return _static_map(board.linked).seal()


def map_for_swapram(system):
    """PC map for a SwapRAM system: NVM functions, runtime area, cache."""
    funcmap = _static_map(system.linked)
    extents = system.linked.image.section_extents
    base, size = extents.get("srruntime", (0, 0))
    funcmap.add_region("__sr_runtime", base, size)
    policy = system.runtime.policy
    funcmap.add_dynamic(policy.base, policy.end, _SwapRamCacheResolver(system.runtime))
    return funcmap.seal()


def map_for_blockcache(system):
    """PC map for a block-cache system: stubs, runtime area, slots."""
    funcmap = _static_map(system.linked)
    extents = system.linked.image.section_extents
    for section, name in (("bbruntime", "__bb_runtime"), ("bbstubs", "__bb_stubs")):
        base, size = extents.get(section, (0, 0))
        funcmap.add_region(name, base, size)
    runtime = system.runtime
    slots_end = runtime.cache_base + runtime.num_slots * runtime.slot_bytes
    funcmap.add_dynamic(runtime.cache_base, slots_end, _BlockSlotResolver(runtime))
    return funcmap.seal()


def build_function_map(target):
    """Dispatch on system flavour: SwapRAM, block cache, or bare board."""
    runtime = getattr(target, "runtime", None)
    if runtime is not None and hasattr(runtime, "policy"):
        return map_for_swapram(target)
    if runtime is not None and hasattr(runtime, "cached_blocks"):
        return map_for_blockcache(target)
    return map_for_board(target)
