"""The block-cache system's two build stages (the prior-work baseline)."""

from functools import partial

from repro.blockcache.runtime import BlockCacheRuntime
from repro.blockcache.transform import instrument_for_blockcache
from repro.toolchain.build import Artefacts, build_system
from repro.toolchain.linker import link, measure_sections


def _expected_cache_bytes(program, plan):
    """SRAM left for slots once the plan's data claims its share."""
    if plan.data != "sram":
        return plan.sram_size
    sizes = measure_sections(program)
    used = sizes["data"] + sizes["bss"] + plan.stack_size
    return max(plan.sram_size - used, 0x100)


def link_blockcache(
    program, plan, cache_limit=None, slot_bytes=48, blacklist=(), cost_model=None
):
    """Instrument *program* for the block cache and link it for *plan*.

    The pass sizes its hash table for the slots the cache will hold,
    so *cache_limit* is a link-time knob here as well as a runtime one.
    """
    expected = _expected_cache_bytes(program, plan)
    if cache_limit is not None:
        expected = min(expected, cache_limit)
    instrumented, meta = instrument_for_blockcache(
        program,
        blacklist=blacklist,
        slot_bytes=slot_bytes,
        expected_cache_bytes=expected,
        cost_model=cost_model,
    )
    return Artefacts(link(instrumented, plan), meta, meta.cost_model)


def attach_blockcache(board, artefacts, cache_limit=None):
    """Install a block-cache runtime on a board loaded with *artefacts*."""
    linked, meta, _ = artefacts
    cache_size = linked.cache_size
    if cache_limit is not None:
        cache_size = min(cache_size, cache_limit)
    return BlockCacheRuntime(
        board, linked.image, meta, linked.cache_base, cache_size
    ).install()


def build_blockcache(
    source_or_program,
    plan,
    frequency_mhz=24,
    blacklist=(),
    slot_bytes=48,
    cost_model=None,
    cache_limit=None,
    **board_kwargs,
):
    """Build a block-cache system; raises FitError when the binary DNFs."""
    return build_system(
        source_or_program,
        plan,
        partial(
            link_blockcache,
            cache_limit=cache_limit,
            slot_bytes=slot_bytes,
            blacklist=blacklist,
            cost_model=cost_model,
        ),
        partial(attach_blockcache, cache_limit=cache_limit),
        frequency_mhz,
        **board_kwargs,
    )
