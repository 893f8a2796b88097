"""The data-plane cache model: geometry, state and decisions.

This is the pure half of :mod:`repro.datacache`: a set-associative,
LRU, write-through *or* write-back cache over FRAM-resident data lines,
with the Open-CAS-style admission gates (sequential-access cutoff,
promotion-on-nth-request). It decides -- hit, fill-with-victim, or
bypass -- and tracks dirty state; it never touches the bus. The
:class:`~repro.datacache.runtime.DataCacheRuntime` executes each
decision as real, attributed bus traffic, which keeps every cycle and
nanojoule accountable and makes the model unit-testable in isolation.

Geometry follows :class:`~repro.machine.fram_cache.FramReadCache`
(``sets`` x ``ways`` lines of ``line_bytes``), but unlike the hardware
read cache the lines here hold real bytes in the board's spare SRAM,
so a power failure with dirty lines outstanding genuinely loses the
deferred writes -- the hazard :mod:`repro.faults` classifies.
"""

from dataclasses import dataclass, replace

from repro.core.policy import make_cleaning

#: Access outcomes (:meth:`DataCacheModel.decide`).
HIT = "hit"
FILL = "fill"
BYPASS = "bypass"

#: Bypass causes (exact-sum partition of the bypass counters).
SEQ = "seq"  # sequential-cutoff: streaming scan, don't pollute
PROMOTE = "promote"  # promotion gate: not requested often enough yet
NO_ALLOCATE = "no-allocate"  # write miss in write-through mode

#: Writeback causes (exact-sum partition of ``writebacks``).
WB_EVICT = "evict"
WB_CLEAN = "clean"
WB_FLUSH = "flush"

MODES = ("through", "back")


@dataclass(frozen=True)
class DataCacheConfig:
    """One data-cache configuration (sweep/replay/CLI currency)."""

    mode: str = "back"
    # 16x2x16 = 512 bytes: covers the quick benchmarks' working sets
    # (rc4's 256-byte state is the largest single object) while leaving
    # half the FR2355 eval SRAM window free. 4x2x16 thrashes: every
    # kernel's state exceeds 128 bytes and fills eat the hit savings.
    sets: int = 16
    ways: int = 2
    line_bytes: int = 16
    cleaning: str = "alru"  # spec for core.policy.make_cleaning
    promote_after: int = 1  # allocate on the nth request of a line
    seq_cutoff_lines: int = 0  # 0 disables the sequential cutoff

    @property
    def total_bytes(self):
        return self.sets * self.ways * self.line_bytes

    def problems(self):
        """Human-readable reasons this configuration is malformed."""
        reasons = []
        if self.mode not in MODES:
            reasons.append(
                f"datacache mode must be one of {'/'.join(MODES)}, "
                f"got {self.mode!r}"
            )
        for name, value in (
            ("sets", self.sets),
            ("ways", self.ways),
            ("line_bytes", self.line_bytes),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                reasons.append(f"datacache {name} must be a positive int")
        if not reasons:
            if self.line_bytes & (self.line_bytes - 1) or self.line_bytes < 2:
                reasons.append(
                    f"datacache line_bytes must be a power of two >= 2, "
                    f"got {self.line_bytes}"
                )
        if not isinstance(self.promote_after, int) or self.promote_after < 1:
            reasons.append("datacache promote_after must be an int >= 1")
        if not isinstance(self.seq_cutoff_lines, int) or self.seq_cutoff_lines < 0:
            reasons.append("datacache seq_cutoff_lines must be an int >= 0")
        try:
            make_cleaning(self.cleaning)
        except ValueError as error:
            reasons.append(f"datacache cleaning: {error}")
        return reasons

    def validated(self):
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def as_dict(self):
        return {
            "mode": self.mode,
            "sets": self.sets,
            "ways": self.ways,
            "line_bytes": self.line_bytes,
            "cleaning": self.cleaning,
            "promote_after": self.promote_after,
            "seq_cutoff_lines": self.seq_cutoff_lines,
        }

    @classmethod
    def from_dict(cls, record):
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(record).items() if k in known})

    def with_geometry(self, spec):
        """``"4x2x16"`` -> sets=4, ways=2, line_bytes=16."""
        sets, ways, line_bytes = parse_geometry(spec)
        return replace(self, sets=sets, ways=ways, line_bytes=line_bytes)


def parse_geometry(spec):
    """Parse a ``SETSxWAYSxLINE`` geometry spec; loud on malformation."""
    if isinstance(spec, (tuple, list)) and len(spec) == 3:
        return tuple(int(part) for part in spec)
    parts = str(spec).lower().split("x")
    if len(parts) != 3:
        raise ValueError(
            f"datacache geometry must be SETSxWAYSxLINE (e.g. 4x2x16), "
            f"got {spec!r}"
        )
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"datacache geometry parts must be integers, got {spec!r}"
        ) from None


@dataclass
class DataCacheStats:
    """Exact counters with sum invariants (asserted by tests and CI).

    The partitions that must hold after any fault-free run::

        reads  == read_hits  + read_misses
        writes == write_hits + write_misses
        read_misses  == read_fills  + read_bypasses
        write_misses == write_fills + write_bypasses
        bypasses == seq_bypasses + promote_deferrals + no_allocates
        fills == read_fills + write_fills
        writebacks == evict_writebacks + clean_writebacks + flush_writebacks
        words_filled == fills * line_words
        words_written_back == writebacks * line_words
    """

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    read_fills: int = 0
    write_fills: int = 0
    read_bypasses: int = 0
    write_bypasses: int = 0
    seq_bypasses: int = 0
    promote_deferrals: int = 0
    no_allocates: int = 0
    evictions: int = 0
    evict_writebacks: int = 0
    clean_writebacks: int = 0
    flush_writebacks: int = 0
    words_filled: int = 0
    words_written_back: int = 0
    #: Dirty lines dropped by power failures over the system's lifetime.
    lost_dirty_lines: int = 0

    @property
    def accesses(self):
        return self.reads + self.writes

    @property
    def hits(self):
        return self.read_hits + self.write_hits

    @property
    def misses(self):
        return self.read_misses + self.write_misses

    @property
    def fills(self):
        return self.read_fills + self.write_fills

    @property
    def bypasses(self):
        return self.read_bypasses + self.write_bypasses

    @property
    def writebacks(self):
        return self.evict_writebacks + self.clean_writebacks + self.flush_writebacks

    @property
    def hit_rate(self):
        return self.hits / self.accesses if self.accesses else 0.0

    def invariant_problems(self, line_words=None):
        """The exact-sum partitions that fail to hold (empty == sound).

        *line_words* additionally pins the copied-word totals to the
        fill/writeback counts; fault runs skip it (a power failure can
        interrupt a line copy mid-word).
        """
        checks = [
            (
                "reads == read_hits + read_misses",
                self.reads == self.read_hits + self.read_misses,
            ),
            (
                "writes == write_hits + write_misses",
                self.writes == self.write_hits + self.write_misses,
            ),
            (
                "read_misses == read_fills + read_bypasses",
                self.read_misses == self.read_fills + self.read_bypasses,
            ),
            (
                "write_misses == write_fills + write_bypasses",
                self.write_misses == self.write_fills + self.write_bypasses,
            ),
            (
                "bypasses == seq + promote + no_allocate",
                self.bypasses
                == self.seq_bypasses + self.promote_deferrals + self.no_allocates,
            ),
        ]
        if line_words is not None:
            checks += [
                (
                    "words_filled == fills * line_words",
                    self.words_filled == self.fills * line_words,
                ),
                (
                    "words_written_back == writebacks * line_words",
                    self.words_written_back == self.writebacks * line_words,
                ),
            ]
        return [label for label, ok in checks if not ok]

    def as_dict(self):
        """Plain-data view, same protocol as ``SwapRamStats.as_dict``."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "accesses": self.accesses,
            "read_hits": self.read_hits,
            "write_hits": self.write_hits,
            "hits": self.hits,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "misses": self.misses,
            "read_fills": self.read_fills,
            "write_fills": self.write_fills,
            "fills": self.fills,
            "read_bypasses": self.read_bypasses,
            "write_bypasses": self.write_bypasses,
            "bypasses": self.bypasses,
            "seq_bypasses": self.seq_bypasses,
            "promote_deferrals": self.promote_deferrals,
            "no_allocates": self.no_allocates,
            "evictions": self.evictions,
            "evict_writebacks": self.evict_writebacks,
            "clean_writebacks": self.clean_writebacks,
            "flush_writebacks": self.flush_writebacks,
            "writebacks": self.writebacks,
            "words_filled": self.words_filled,
            "words_written_back": self.words_written_back,
            "lost_dirty_lines": self.lost_dirty_lines,
            "hit_rate": self.hit_rate,
        }


@dataclass(eq=False)
class CacheLine:
    """One resident line: which tag occupies which SRAM slot.

    Lines compare by identity: the model moves them within their set's
    LRU list, and no two lines are ever interchangeable.
    """

    set_index: int
    slot: int  # way index; fixes the line's SRAM address for life
    sram: int  # first SRAM byte of the slot
    tag: int = -1
    dirty: bool = False
    dirty_since: int = 0  # tick of the write that dirtied it
    last_tick: int = 0

    @property
    def valid(self):
        return self.tag >= 0


@dataclass
class Decision:
    """What one access should do (returned by :meth:`decide`)."""

    kind: str  # HIT / FILL / BYPASS
    line: CacheLine = None
    #: For FILL: the victim line's previous occupancy, already unlinked.
    #: ``evicted_tag >= 0`` means a valid line was displaced;
    #: ``writeback`` flags that its bytes must go to FRAM first.
    evicted_tag: int = -1
    writeback: bool = False
    cause: str = ""  # bypass cause: SEQ / PROMOTE / NO_ALLOCATE


class DataCacheModel:
    """Pure cache state machine over FRAM line tags.

    *base* is the first SRAM byte of the line store; line ``(set, way)``
    lives at ``base + (set * ways + way) * line_bytes``. The model
    updates its own state on every access -- :meth:`hit` for resident
    lines, :meth:`decide` for everything -- and copying bytes is the
    runtime's job.
    """

    def __init__(self, config, base):
        config.validated()
        self.config = config
        self.base = base
        self.stats = DataCacheStats()
        self.ticks = 0
        # Per set: lines in LRU order, most-recently-used last.
        self._sets = [
            [
                CacheLine(
                    set_index=index,
                    slot=way,
                    sram=base + (index * config.ways + way) * config.line_bytes,
                )
                for way in range(config.ways)
            ]
            for index in range(config.sets)
        ]
        # Promotion gate: requests seen per absent tag.
        self._requests = {}
        # Sequential-run detector state, kept only when a cutoff reads it.
        self._seq_last_tag = None
        self._seq_run = 0
        self._seq_cutoff = config.seq_cutoff_lines
        # The hit path's constants, read once per access.
        self._line_bytes = config.line_bytes
        self._set_count = config.sets
        self._write_back = config.mode == "back"

    # -- geometry ------------------------------------------------------------------

    @property
    def line_words(self):
        return self.config.line_bytes // 2

    def fram_address(self, tag):
        """First FRAM byte of the line *tag* caches."""
        return tag * self.config.line_bytes

    def dirty_lines(self):
        """All dirty lines, set-major then slot order (deterministic)."""
        return [
            line
            for lines in self._sets
            for line in sorted(lines, key=lambda entry: entry.slot)
            if line.valid and line.dirty
        ]

    def resident_lines(self):
        return [
            line
            for lines in self._sets
            for line in sorted(lines, key=lambda entry: entry.slot)
            if line.valid
        ]

    # -- the decision procedure ------------------------------------------------------

    def hit(self, address, is_write):
        """The resident line holding *address*, with the hit accounted.

        Returns ``None`` and touches no state when the line is absent;
        :meth:`decide` then classifies the miss. A hit costs one scan
        of the set: tick, sequence detector, stats, dirty marking and
        the LRU move happen here and nowhere else.
        """
        tag = address // self._line_bytes
        lines = self._sets[tag % self._set_count]
        for line in lines:
            if line.tag == tag:
                break
        else:
            return None
        self.ticks = ticks = self.ticks + 1
        if self._seq_cutoff:
            self._observe_sequence(tag)
        stats = self.stats
        if is_write:
            stats.writes += 1
            stats.write_hits += 1
            if self._write_back and not line.dirty:
                line.dirty = True
                line.dirty_since = ticks
        else:
            stats.reads += 1
            stats.read_hits += 1
        line.last_tick = ticks
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)
        return line

    def decide(self, address, is_write):
        """Classify one application access and update cache state.

        The admission order on a miss is sequential cutoff, then the
        write-through no-allocate rule, then the promotion gate --
        matching Open-CAS, where the cutoff screens streams before any
        per-line bookkeeping happens.
        """
        line = self.hit(address, is_write)
        if line is not None:
            return Decision(HIT, line=line)
        config = self.config
        stats = self.stats
        self.ticks += 1
        tag = address // config.line_bytes
        if is_write:
            stats.writes += 1
            stats.write_misses += 1
        else:
            stats.reads += 1
            stats.read_misses += 1

        cause = None
        if self._seq_cutoff and self._observe_sequence(tag):
            cause = SEQ
            stats.seq_bypasses += 1
        elif is_write and config.mode == "through":
            cause = NO_ALLOCATE
            stats.no_allocates += 1
        elif config.promote_after > 1:
            seen = self._requests.get(tag, 0) + 1
            if seen >= config.promote_after:
                self._requests.pop(tag, None)
            else:
                self._requests[tag] = seen
                cause = PROMOTE
                stats.promote_deferrals += 1
        if cause is not None:
            if is_write:
                stats.write_bypasses += 1
            else:
                stats.read_bypasses += 1
            return Decision(BYPASS, cause=cause)

        lines = self._sets[tag % config.sets]
        victim = lines.pop(0)  # LRU; becomes most recently used below
        lines.append(victim)
        evicted_tag = victim.tag
        writeback = victim.valid and victim.dirty
        if victim.valid:
            stats.evictions += 1
            if writeback:
                stats.evict_writebacks += 1
        victim.tag = tag
        victim.dirty = False
        victim.dirty_since = 0
        victim.last_tick = self.ticks
        if is_write:
            stats.write_fills += 1
            if config.mode == "back":
                victim.dirty = True
                victim.dirty_since = self.ticks
        else:
            stats.read_fills += 1
        stats.words_filled += self.line_words
        return Decision(FILL, line=victim, evicted_tag=evicted_tag, writeback=writeback)

    def _observe_sequence(self, tag):
        """Track consecutive-line runs; True once past the cutoff."""
        if self._seq_last_tag is None or tag == self._seq_last_tag + 1:
            self._seq_run += 1
        elif tag != self._seq_last_tag:
            self._seq_run = 1
        self._seq_last_tag = tag
        return self._seq_run > self.config.seq_cutoff_lines

    # -- cleaning / flush / power ------------------------------------------------------

    def mark_clean(self, line, cause):
        """Account one completed writeback of *line* and clear dirty."""
        if not line.dirty:
            raise ValueError(f"line tag={line.tag} is not dirty")
        line.dirty = False
        line.dirty_since = 0
        if cause == WB_CLEAN:
            self.stats.clean_writebacks += 1
        elif cause == WB_FLUSH:
            self.stats.flush_writebacks += 1
        else:
            raise ValueError(f"unknown writeback cause {cause!r}")
        self.stats.words_written_back += self.line_words

    def note_evict_writeback(self):
        """Account the copy traffic of an eviction writeback."""
        self.stats.words_written_back += self.line_words

    def drop_all(self):
        """Power failure: every line dies; returns the dirty ones lost.

        The returned lines still carry their tags so the caller can
        record exactly which FRAM bytes silently lost their writes.
        """
        lost = self.dirty_lines()
        self.stats.lost_dirty_lines += len(lost)
        dropped = [
            {"tag": line.tag, "fram_address": self.fram_address(line.tag)}
            for line in lost
        ]
        for lines in self._sets:
            for line in lines:
                line.tag = -1
                line.dirty = False
                line.dirty_since = 0
                line.last_tick = 0
        self._requests.clear()
        self._seq_last_tag = None
        self._seq_run = 0
        return dropped
