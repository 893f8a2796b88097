"""Cache memory structures / replacement and cleaning policies.

Two policy families live here so every cache subsystem shares one
registry surface:

* **Replacement** (paper §3.4) -- the data structure organising cached
  functions in SRAM *is* the replacement policy. The paper's
  proof-of-concept uses a circular queue ("least-recently-cached"
  eviction, good density, evicts ancestors rarely); it explicitly
  argues a stack ("most-recently-cached") is counterproductive -- we
  implement both so the ablation benchmark can show the difference --
  and sketches priority-based schemes as future work, which
  :class:`CostAwareQueuePolicy` explores. Registered in
  :data:`POLICIES`.
* **Cleaning** -- when the data-plane cache (:mod:`repro.datacache`)
  runs write-back, dirty lines accumulate and something must decide
  when to write them to FRAM. The strategies are modeled on Open-CAS:
  :class:`AlruCleaning` (lazy, age-gated, LRU-dirty-first) and
  :class:`AcpCleaning` (aggressive, periodic, address order), plus
  :class:`NopCleaning` (evict/flush only). Registered in
  :data:`CLEANING_POLICIES`.

:func:`lookup_policy` is the shared entry point both SwapRAM and the
data cache resolve names through.
"""

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class CacheNode:
    """One cached function: its id and SRAM placement."""

    func_id: int
    address: int
    size: int

    @property
    def end(self):
        return self.address + self.size

    def identity(self):
        """The victim/occupant identity observability consumers record.

        Plain data -- funcId plus the SRAM line (address/size) it
        occupies -- so eviction-causality reports and timelines can
        name exactly which cache bytes changed hands.
        """
        return {
            "func_id": self.func_id,
            "address": self.address,
            "size": self.size,
        }


@dataclass
class Placement:
    """A planned insertion: where to put the function, whom to evict."""

    address: int
    victims: List[CacheNode] = field(default_factory=list)
    nodes_scanned: int = 0


class CachePolicy:
    """Common bookkeeping for SRAM function caches."""

    name = "abstract"

    def __init__(self, base, size):
        self.base = base
        self.size = size
        self.end = base + size
        self.nodes: List[CacheNode] = []
        #: Victims removed by the most recent :meth:`commit` -- the
        #: eviction-identity surface observability layers read. Purely
        #: informational: policies never consult it, so exposing it
        #: cannot change placement decisions or run totals.
        self.last_evictions: tuple = ()
        #: Bumped whenever ``nodes`` changes (:meth:`commit`,
        #: :meth:`reset`), so readers can memoise lookups by it.
        self.version = 0

    def reset(self):
        self.nodes = []
        self.last_evictions = ()
        self.version += 1

    def lookup(self, func_id) -> Optional[CacheNode]:
        for node in self.nodes:
            if node.func_id == func_id:
                return node
        return None

    def used_bytes(self):
        return sum(node.size for node in self.nodes)

    def free_bytes(self):
        """Bytes of the cache window not covered by any node.

        Computed by scanning the gaps between address-ordered nodes
        rather than as ``size - used_bytes()``, so that
        ``used + free == size`` genuinely certifies the allocator's
        consistency: it holds only when every node lies inside the
        window and no two nodes overlap.
        """
        free = 0
        cursor = self.base
        for node in sorted(self.nodes, key=lambda node: node.address):
            free += max(node.address - cursor, 0)
            cursor = max(cursor, node.end)
        free += max(self.end - cursor, 0)
        return free

    def _overlapping(self, address, size):
        lo, hi = address, address + size
        return [node for node in self.nodes if node.address < hi and node.end > lo]

    def plan(self, size, is_active=None) -> Optional[Placement]:
        """Choose a landing zone for *size* bytes.

        *is_active* (func_id -> bool) lets the policy avoid planning an
        eviction the runtime would have to abort (paper §3.3.2: flagging
        a function does not guarantee it can be evicted). A returned
        placement may still contain active victims -- the runtime's
        charged active-counter check is the authority and falls back to
        NVM execution.
        """
        raise NotImplementedError

    def commit(self, func_id, placement, size) -> CacheNode:
        """Apply a planned insertion after the caller evicted the victims."""
        self.last_evictions = tuple(placement.victims)
        for victim in placement.victims:
            self.nodes.remove(victim)
        node = CacheNode(func_id, placement.address, size)
        self.nodes.append(node)
        self.version += 1
        self._after_commit(node)
        return node

    def _after_commit(self, node):
        pass


class CircularQueuePolicy(CachePolicy):
    """The paper's design: FIFO placement around a circular buffer.

    New functions go after the most recently cached one, wrapping to the
    bottom of the cache when the end is reached (leaving a small gap --
    the density cost Figure 5 shows). Anything physically overlapping
    the landing zone is flagged for eviction, which makes replacement
    least-recently-cached.
    """

    name = "queue"

    def __init__(self, base, size):
        super().__init__(base, size)
        self.tail = base

    def reset(self):
        super().reset()
        self.tail = self.base

    def plan(self, size, is_active=None):
        if size > self.size:
            return None
        address = self.tail
        wrapped = False
        if address + size > self.end:
            address = self.base  # wrap, leaving a gap at the top
            wrapped = True
        scanned = 0
        best = None
        for _attempt in range(len(self.nodes) + 2):
            victims = self._overlapping(address, size)
            scanned += len(victims) + 1
            best = Placement(address, victims, nodes_scanned=scanned + 1)
            if is_active is None:
                return best
            blocker = next(
                (victim for victim in victims if is_active(victim.func_id)), None
            )
            if blocker is None:
                return best
            # Skip past the live function and retry after it (§3.3.2's
            # "flagged but not evictable" case) instead of giving up.
            address = blocker.end
            if address + size > self.end:
                if wrapped:
                    return best  # nowhere is free of live code: runtime aborts
                address = self.base
                wrapped = True
        return best

    def _after_commit(self, node):
        self.tail = node.end


class StackPolicy(CachePolicy):
    """The §3.4 strawman: contiguous stack, most-recently-cached eviction.

    Maximises density (no gaps) but evicts the newest functions first --
    exactly the code most likely to be hot or on the call stack, so
    expect more eviction aborts and worse hit behaviour.
    """

    name = "stack"

    def __init__(self, base, size):
        super().__init__(base, size)
        self.top = base

    def reset(self):
        super().reset()
        self.top = self.base

    def plan(self, size, is_active=None):
        if size > self.size:
            return None
        if self.top + size <= self.end:
            return Placement(self.top, [], nodes_scanned=len(self.nodes))
        # Pop newest entries until the new function fits below the end.
        victims = []
        top = self.top
        ordered = sorted(self.nodes, key=lambda node: node.address)
        while ordered and top + size > self.end:
            victim = ordered.pop()  # most recently cached is highest
            victims.append(victim)
            top = victim.address
        if top + size > self.end:
            victims = list(self.nodes)
            top = self.base
        return Placement(top, victims, nodes_scanned=len(self.nodes))

    def _after_commit(self, node):
        self.top = node.end


class CostAwareQueuePolicy(CircularQueuePolicy):
    """Future-work variant (§3.4): discourage evicting large functions.

    Planning proceeds like the circular queue, but when the flagged
    victims' total size is disproportionate to the incoming function
    (re-copying them later would cost more than the expected saving),
    the plan is marked not-worth-it by returning None -- the runtime
    then executes the function from NVM instead of thrashing the cache.
    """

    name = "cost_aware"

    def __init__(self, base, size, max_victim_ratio=3.0):
        super().__init__(base, size)
        self.max_victim_ratio = max_victim_ratio

    def plan(self, size, is_active=None):
        placement = super().plan(size, is_active)
        if placement is None:
            return None
        victim_bytes = sum(victim.size for victim in placement.victims)
        if victim_bytes > self.max_victim_ratio * max(size, 1):
            return None
        return placement


POLICIES = {
    policy.name: policy
    for policy in (CircularQueuePolicy, StackPolicy, CostAwareQueuePolicy)
}


class CleaningPolicy:
    """When to write dirty data-cache lines back, outside of evictions.

    ``tick(cache)`` is consulted once every ``interval`` application
    accesses to the cached window -- when ``cache.ticks % interval ==
    0`` -- and returns the lines to clean *now* (possibly none); an
    ``interval`` of 0 means never. *cache* is any object exposing
    ``ticks`` (monotonic access count) and ``dirty_lines()`` (line
    objects carrying ``tag``, ``set_index``, ``dirty_since`` and
    ``last_tick``). Policies never touch memory themselves -- the
    runtime performs the writebacks it is told to, so every cleaning
    decision is charged as real bus traffic.
    """

    name = "abstract"
    interval = 0

    def reset(self):
        pass

    def tick(self, cache):
        raise NotImplementedError

    def describe(self):
        """Deterministic plain-data identity for reports and sweeps."""
        return {"name": self.name}


def _at_least(name, value, least):
    """*value* if it is an int >= *least*; ``ValueError`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


class NopCleaning(CleaningPolicy):
    """Never clean: dirty lines persist until eviction or final flush.

    The maximum-deferral corner -- cheapest while running, and the
    worst case for crash consistency (every dirty line is exposed to a
    power failure for its whole residency).
    """

    name = "none"

    def tick(self, cache):
        return ()


class AlruCleaning(CleaningPolicy):
    """Open-CAS ALRU-style lazy cleaning.

    Every *interval* accesses, clean up to *batch* dirty lines that
    have gone *stale* -- not touched for at least *age* accesses --
    least recently used first. Hot lines are left alone (they are
    likely to be written again, and cleaning them early would waste
    FRAM writes), so a busy line is cleaned once when it goes cold
    instead of once per store burst.
    """

    name = "alru"

    def __init__(self, interval=256, batch=1, age=1024):
        self.interval = _at_least("interval", interval, 1)
        self.batch = _at_least("batch", batch, 1)
        self.age = _at_least("age", age, 0)

    def tick(self, cache):
        if cache.ticks % self.interval:
            return ()
        ripe = [
            line
            for line in cache.dirty_lines()
            if cache.ticks - line.last_tick >= self.age
        ]
        ripe.sort(key=lambda line: (line.last_tick, line.tag))
        return ripe[: self.batch]

    def describe(self):
        return {
            "name": self.name,
            "interval": self.interval,
            "batch": self.batch,
            "age": self.age,
        }


class AcpCleaning(CleaningPolicy):
    """Open-CAS ACP-style aggressive cleaning.

    Every *interval* accesses, clean up to *batch* dirty lines in
    ascending address order regardless of age. Keeps the dirty
    population near zero (shortest crash-exposure window) at the price
    of re-writing hot lines -- and the address order means FRAM
    durability follows line layout, not program order, which is exactly
    the reordering hazard the fault harness demonstrates.
    """

    name = "acp"

    def __init__(self, interval=256, batch=1):
        self.interval = _at_least("interval", interval, 1)
        self.batch = _at_least("batch", batch, 1)

    def tick(self, cache):
        if cache.ticks % self.interval:
            return ()
        dirty = sorted(cache.dirty_lines(), key=lambda line: line.tag)
        return dirty[: self.batch]

    def describe(self):
        return {"name": self.name, "interval": self.interval, "batch": self.batch}


CLEANING_POLICIES = {
    policy.name: policy for policy in (NopCleaning, AlruCleaning, AcpCleaning)
}

#: The registry surface shared by every cache subsystem: SwapRAM and
#: the block cache resolve replacement policies, the data cache both.
POLICY_REGISTRIES = {
    "replacement": POLICIES,
    "cleaning": CLEANING_POLICIES,
}


def lookup_policy(kind, name):
    """Resolve a policy class from the shared registry; loud on miss."""
    registry = POLICY_REGISTRIES.get(kind)
    if registry is None:
        raise KeyError(
            f"unknown policy kind {kind!r} "
            f"(have: {', '.join(sorted(POLICY_REGISTRIES))})"
        )
    policy = registry.get(name)
    if policy is None:
        raise KeyError(
            f"unknown {kind} policy {name!r} "
            f"(have: {', '.join(sorted(registry))})"
        )
    return policy


def make_cleaning(spec):
    """Build a cleaning policy from a spec string.

    ``"alru"`` takes the defaults; ``"alru:interval=128,age=64"``
    overrides constructor keywords. Raises ``ValueError`` on malformed
    specs -- callers (CLI, sweep executors) surface it verbatim.
    """
    if isinstance(spec, CleaningPolicy):
        return spec
    name, _, params = str(spec).partition(":")
    try:
        policy_class = lookup_policy("cleaning", name)
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    kwargs = {}
    if params:
        for pair in params.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"malformed cleaning parameter {pair!r} in {spec!r} "
                    f"(expected key=int)"
                )
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"cleaning parameter {key!r} in {spec!r} must be an "
                    f"integer, got {value!r}"
                ) from None
    try:
        return policy_class(**kwargs)
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad cleaning spec {spec!r}: {error}") from None
