"""One-call construction of a SwapRAM-enabled system.

``build_swapram`` runs the full pipeline the paper describes in §4:
compile (mini-C -> assembly), apply the static instrumentation pass,
link with the metadata/runtime sections in FRAM, reserve the SRAM cache
area, and install the miss handler. The returned system runs exactly
like a baseline board and exposes runtime statistics
(:class:`~repro.toolchain.build.System`).
"""

from repro.core.costs import RuntimeCostModel
from repro.core.policy import CircularQueuePolicy
from repro.core.runtime import SwapRamRuntime
from repro.core.transform import instrument_for_swapram
from repro.machine.board import Board
from repro.toolchain.build import System, add_startup, compile_program
from repro.toolchain.linker import link


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
    cost_model = cost_model or RuntimeCostModel()
    if isinstance(source_or_program, str):
        program = compile_program(source_or_program)
    else:
        program = add_startup(source_or_program)

    # The startup code is not instrumented (the paper's toolchain never
    # processes crt0), so the entry function it calls executes from NVM
    # and never enters the cache. Without this, `main` -- active for the
    # whole run -- would sit at the bottom of the circular queue and turn
    # every wrap-around placement into an eviction abort.
    blacklist = set(blacklist) | {"main"}

    instrumented, meta = instrument_for_swapram(
        program, blacklist=blacklist, cost_model=cost_model
    )
    linked = link(instrumented, plan)

    cache_size = linked.cache_size & ~1
    cache_base = (linked.cache_base + 1) & ~1
    if cache_limit is not None:
        cache_size = min(cache_size, cache_limit & ~1)
    policy = policy_class(cache_base, cache_size)

    board = Board(
        memory_map=linked.memory_map, frequency_mhz=frequency_mhz, **board_kwargs
    )
    board.load(linked.image)
    board.linked = linked
    runtime = SwapRamRuntime(
        board,
        linked.image,
        meta,
        policy,
        cost_model,
        thrash_guard=thrash_guard,
        prefetcher=prefetcher,
    )
    runtime.install()
    return System(board=board, runtime=runtime, linked=linked, meta=meta)
