"""The SwapRAM system's two build stages, and one-call construction.

``link_swapram`` applies the static instrumentation pass the paper
describes in §4 and links with the metadata/runtime sections in FRAM;
``attach_swapram`` reserves the SRAM cache area and installs the miss
handler. ``build_swapram`` runs both through
:func:`~repro.toolchain.build.build_system`. The returned system runs
exactly like a baseline board and exposes runtime statistics
(:class:`~repro.toolchain.build.System`).
"""

from functools import partial

from repro.core.costs import RuntimeCostModel
from repro.core.policy import CircularQueuePolicy
from repro.core.runtime import SwapRamRuntime
from repro.core.transform import instrument_for_swapram
from repro.toolchain.build import Artefacts, build_system
from repro.toolchain.linker import link


def link_swapram(program, plan, blacklist=(), cost_model=None):
    """Instrument *program* for SwapRAM and link it for *plan*."""
    cost_model = cost_model or RuntimeCostModel()
    # The startup code is not instrumented (the paper's toolchain never
    # processes crt0), so the entry function it calls executes from NVM
    # and never enters the cache. Without this, `main` -- active for the
    # whole run -- would sit at the bottom of the circular queue and turn
    # every wrap-around placement into an eviction abort.
    instrumented, meta = instrument_for_swapram(
        program, blacklist=set(blacklist) | {"main"}, cost_model=cost_model
    )
    return Artefacts(link(instrumented, plan), meta, cost_model)


def attach_swapram(
    board,
    artefacts,
    policy_class=CircularQueuePolicy,
    cache_limit=None,
    thrash_guard=None,
    prefetcher=None,
):
    """Install a SwapRAM runtime on a board loaded with *artefacts*."""
    linked, meta, cost_model = artefacts
    cache_size = linked.cache_size & ~1
    cache_base = (linked.cache_base + 1) & ~1
    if cache_limit is not None:
        cache_size = min(cache_size, cache_limit & ~1)
    return SwapRamRuntime(
        board,
        linked.image,
        meta,
        policy_class(cache_base, cache_size),
        cost_model,
        thrash_guard=thrash_guard,
        prefetcher=prefetcher,
    ).install()


def build_swapram(
    source_or_program,
    plan,
    frequency_mhz=24,
    policy_class=CircularQueuePolicy,
    blacklist=(),
    cost_model=None,
    cache_limit=None,
    thrash_guard=None,
    prefetcher=None,
    **board_kwargs,
):
    """Build a SwapRAM system for mini-C source or an assembly Program.

    *plan* chooses the memory configuration (normally ``unified``; the
    split-SRAM experiments pass ``standard`` with a cache reserve).
    *cache_limit* optionally caps the SRAM cache size in bytes.
    *thrash_guard* optionally enables the §5.4 freeze-on-thrash
    extension (pass a :class:`repro.core.thrash.ThrashGuard`);
    *prefetcher* optionally enables call-graph prefetching (pass a
    :class:`repro.core.prefetch.CallGraphPrefetcher`).
    """
    return build_system(
        source_or_program,
        plan,
        partial(link_swapram, blacklist=blacklist, cost_model=cost_model),
        partial(
            attach_swapram,
            policy_class=policy_class,
            cache_limit=cache_limit,
            thrash_guard=thrash_guard,
            prefetcher=prefetcher,
        ),
        frequency_mhz,
        **board_kwargs,
    )
