"""The data-cache system's attach stage, and one-call construction.

The data cache links exactly like the baseline (its link stage *is*
``link_baseline``, which is what makes write-through configurations
replayable from baseline traces); ``attach_datacache``, its attach
stage, installs a :class:`~repro.datacache.runtime.DataCacheRuntime`:

* the **line store** occupies the front of the free SRAM window the
  linker reports (``cache_base``/``cache_size``) -- the same spare SRAM
  SwapRAM would use for code;
* the **window** covers the FRAM-resident data the plan produced:
  rodata, data, bss and the stack (everything but code);
* the **runtime area** -- the FRAM addresses the cost charger fetches
  handler/memcpy instructions from -- is carved from the unused FRAM
  past the stack, so the modelled runtime executes from real NVM
  addresses without perturbing the application image.

Capacity overruns raise :class:`~repro.toolchain.linker.FitError`, the
same DNF outcome as everywhere else.
"""

from functools import partial

from repro.core.costs import DataCacheCostModel
from repro.datacache.cache import DataCacheConfig
from repro.datacache.runtime import DataCacheRuntime
from repro.toolchain.build import build_system, link_baseline
from repro.toolchain.linker import FitError


def data_window(linked):
    """The FRAM data ranges the cache covers, as ``(lo, hi)`` pairs.

    Every FRAM-resident *data* section (rodata/data/bss) plus the stack
    when the plan places it in FRAM; code is the instruction plane's
    business. Deterministic given the linked program, so the execute
    and replay paths agree byte for byte.
    """
    fram = linked.memory_map.fram
    extents = linked.image.section_extents
    ranges = []
    for section in ("rodata", "data", "bss"):
        base, size = extents.get(section, (0, 0))
        if size and fram.start <= base < fram.end:
            ranges.append((base, base + size))
    if linked.plan.data == "fram":
        stack_top = linked.stack_top
        ranges.append((stack_top - linked.plan.stack_size, stack_top))
    ranges.sort()
    merged = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def runtime_area(linked, cost_model):
    """The free FRAM range the cost charger executes from.

    Starts past everything the link placed (sections and stack); loud
    :class:`FitError` when the platform has no room left for the
    modelled runtime.
    """
    fram = linked.memory_map.fram
    used = fram.start
    for base, size in linked.image.section_extents.values():
        if fram.start <= base < fram.end:
            used = max(used, base + size)
    if linked.plan.data == "fram":
        used = max(used, linked.stack_top)
    handler_base = (used + 1) & ~1
    needed = cost_model.handler_bytes + cost_model.memcpy_bytes
    if handler_base + needed > fram.end:
        raise FitError(
            f"datacache runtime needs {needed} bytes of FRAM past "
            f"{handler_base:#06x}, but the region ends at {fram.end:#06x}"
        )
    return handler_base


def attach_datacache(board, artefacts, config=None, cost_model=None):
    """The data cache's attach stage: install a runtime on a baseline board.

    *artefacts* are the baseline link stage's: the data cache links
    exactly as the baseline does, which is how the replay engine
    attaches any write-through configuration over a baseline trace.
    *config* is a :class:`~repro.datacache.cache.DataCacheConfig`
    (default: write-back, 16x2x16, ALRU cleaning).
    """
    config = (config if config is not None else DataCacheConfig()).validated()
    cost_model = cost_model or DataCacheCostModel()
    linked = artefacts.linked
    cache_base = (linked.cache_base + 1) & ~1
    cache_size = linked.memory_map.sram.end - cache_base
    if config.total_bytes > cache_size:
        raise FitError(
            f"datacache geometry {config.sets}x{config.ways}x"
            f"{config.line_bytes} needs {config.total_bytes} bytes of SRAM, "
            f"only {cache_size} free"
        )
    return DataCacheRuntime(
        board,
        config,
        window=data_window(linked),
        line_base=cache_base,
        handler_base=runtime_area(linked, cost_model),
        cost_model=cost_model,
    ).install()


def build_datacache(
    source_or_program,
    plan,
    config=None,
    frequency_mhz=24,
    cost_model=None,
    **board_kwargs,
):
    """Build a data-cache system for mini-C source or an assembly Program.

    The image is linked exactly as the baseline's -- the data cache is
    a pure runtime attachment, which keeps write-through configurations
    replayable from baseline traces.
    """
    return build_system(
        source_or_program,
        plan,
        link_baseline,
        partial(attach_datacache, config=config, cost_model=cost_model),
        frequency_mhz,
        **board_kwargs,
    )
