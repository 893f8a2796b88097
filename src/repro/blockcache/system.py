"""One-call construction of a block-cache system (the prior-work baseline)."""

from repro.blockcache.runtime import BlockCacheRuntime
from repro.blockcache.transform import BlockCostModel, instrument_for_blockcache
from repro.machine.board import Board
from repro.toolchain.build import System, add_startup, compile_program
from repro.toolchain.linker import link, measure_sections


def _expected_cache_bytes(program, plan):
    """SRAM left for slots once the plan's data claims its share."""
    if plan.data != "sram":
        return plan.sram_size
    sizes = measure_sections(program)
    used = sizes["data"] + sizes["bss"] + plan.stack_size
    return max(plan.sram_size - used, 0x100)


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
    cost_model = cost_model or BlockCostModel()
    if isinstance(source_or_program, str):
        program = compile_program(source_or_program)
    else:
        program = add_startup(source_or_program)

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
    linked = link(instrumented, plan)

    cache_size = linked.cache_size
    if cache_limit is not None:
        cache_size = min(cache_size, cache_limit)
    board = Board(
        memory_map=linked.memory_map, frequency_mhz=frequency_mhz, **board_kwargs
    )
    board.load(linked.image)
    board.linked = linked
    runtime = BlockCacheRuntime(
        board, linked.image, meta, linked.cache_base, cache_size
    )
    runtime.install()
    return System(board=board, runtime=runtime, linked=linked, meta=meta)
