"""The FR2355's hardware FRAM read cache.

The datasheet (and paper §4) describe a tiny 2-way set-associative cache
of four 8-byte lines in the FRAM memory controller. It only models
timing: a hit avoids the frequency-dependent wait states, a miss pays
them and fills a line. Data always comes from the backing store, which
is why SwapRAM's self-modifying writes need no coherence handling here
(real FRAM controllers write through).
"""


class FramReadCache:
    """LRU, set-associative, timing-only read cache.

    Default geometry matches the FR2355: ``line_bytes=8`` with four
    lines arranged as 2 sets x 2 ways.
    """

    def __init__(self, sets=2, ways=2, line_bytes=8):
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.hits = 0
        self.misses = 0
        #: Lines actually dropped by :meth:`invalidate` -- a write to an
        #: uncached address costs nothing here, so it is not counted. A
        #: full invalidation counts every line that was live.
        self.invalidates = 0
        # Per set: list of tags, most-recently-used last. The lists are
        # only ever mutated in place, so a holder of one (the block
        # path's fetch closures) stays current.
        self._lines = [[] for _ in range(sets)]

    @property
    def total_bytes(self):
        return self.sets * self.ways * self.line_bytes

    def _locate(self, address):
        line = address // self.line_bytes
        return line % self.sets, line

    def access(self, address):
        """Record a read of *address*; returns True on hit."""
        tag = address // self.line_bytes
        ways = self._lines[tag % self.sets]
        if tag in ways:
            if ways[-1] != tag:  # already most recently used: order stands
                ways.remove(tag)
                ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.ways:
            ways.pop(0)
        return False

    def invalidate(self, address=None):
        """Drop one line (or everything) -- used on FRAM writes."""
        if address is None:
            self.invalidates += sum(len(ways) for ways in self._lines)
            for ways in self._lines:
                ways.clear()
            return
        index, tag = self._locate(address)
        ways = self._lines[index]
        if tag in ways:
            ways.remove(tag)
            self.invalidates += 1

    def reset_stats(self):
        self.hits = 0
        self.misses = 0
        self.invalidates = 0

    def snapshot(self):
        """Capture line contents and hit/miss/invalidate tallies."""
        return (
            self.hits,
            self.misses,
            self.invalidates,
            [list(ways) for ways in self._lines],
        )

    def restore(self, snapshot):
        hits, misses, invalidates, lines = snapshot
        self.hits = hits
        self.misses = misses
        self.invalidates = invalidates
        for ways, saved in zip(self._lines, lines):
            ways[:] = saved
        return self

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self):
        """Plain-data view, the same stats protocol the runtimes expose
        (``SwapRamStats.as_dict`` / ``BlockCacheStats.as_dict``)."""
        return {
            "sets": self.sets,
            "ways": self.ways,
            "line_bytes": self.line_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "invalidates": self.invalidates,
            "accesses": self.hits + self.misses,
            "hit_rate": self.hit_rate,
        }
