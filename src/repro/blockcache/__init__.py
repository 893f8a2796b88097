"""Block-based software instruction cache (Miller & Agarwal, ported).

The prior-work baseline the paper compares against (§2.3, §4): code is
cached at basic-block granularity in fixed-size SRAM slots. Every
control-flow instruction is rewritten to enter the runtime through a
unique stub (the "jump table" that dominates the approach's memory
overhead); the runtime places target blocks in slots, tracks them in a
djb2 hash table kept in FRAM, chains cached blocks together by
rewriting branch immediates in the SRAM copies, and flushes the whole
cache when it fills (the highest-performance variant in the original
paper, which needs no chain-undo bookkeeping).

Returns always flow through FRAM stubs, so a flush can never strand a
return address pointing into a discarded SRAM copy.
"""

from repro.blockcache.transform import (
    BlockCacheMeta,
    BlockInfo,
    instrument_for_blockcache,
)
from repro.blockcache.runtime import BlockCacheRuntime, BlockCacheStats
from repro.blockcache.system import build_blockcache

__all__ = [
    "BlockCacheMeta",
    "BlockInfo",
    "instrument_for_blockcache",
    "BlockCacheRuntime",
    "BlockCacheStats",
    "build_blockcache",
]
