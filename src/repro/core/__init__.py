"""SwapRAM: the paper's contribution.

A software instruction cache for NVRAM-based microcontrollers:

* :mod:`repro.core.transform` -- the compile-time assembly pass:
  call-site redirection through per-function entries, funcId
  signalling, active-counter maintenance for call-stack integrity,
  jump-range legalisation, and absolute-branch relocation entries
  (paper §3.2, Figure 3).
* :mod:`repro.core.policy` -- the cache memory structures of §3.4:
  the circular queue used in the paper plus the stack alternative it
  argues against (kept for the ablation benchmark).
* :mod:`repro.core.runtime` -- the cache miss handler (§3.3): placement,
  eviction with active-counter checks and NVM-execution fallback,
  word-by-word copy into SRAM, and branch-relocation updates. Hosted as
  a simulator native hook; all memory traffic is real bus traffic and
  cycle costs follow :mod:`repro.core.costs`.
* :mod:`repro.core.system` -- one-call builder wiring it all together.
"""

from repro.core.costs import RuntimeCostModel
from repro.core.policy import CacheNode, CircularQueuePolicy, StackPolicy
from repro.core.transform import SwapRamMeta, instrument_for_swapram
from repro.core.runtime import SwapRamRuntime, SwapRamStats
from repro.core.system import build_swapram
from repro.core.thrash import ThrashGuard
from repro.core.prefetch import CallGraphPrefetcher

__all__ = [
    "RuntimeCostModel",
    "CacheNode",
    "CircularQueuePolicy",
    "StackPolicy",
    "SwapRamMeta",
    "instrument_for_swapram",
    "SwapRamRuntime",
    "SwapRamStats",
    "build_swapram",
    "ThrashGuard",
    "CallGraphPrefetcher",
]
