"""Software data-plane cache for FRAM-resident data in spare SRAM.

The instruction plane (SwapRAM, :mod:`repro.core`) caches *code*; this
package caches *data* -- the crc tables, rc4 state and lzfx buffers
that otherwise pay full FRAM wait states on every access. It supports
write-through and write-back modes, Open-CAS-style cleaning/promotion
policies (shared registry in :mod:`repro.core.policy`), exact
cycle/energy accounting, and crash-consistency coupling with
:mod:`repro.faults`: a power failure with dirty lines outstanding
silently loses the deferred writes. See docs/datacache.md.
"""

from repro.datacache.cache import (
    DataCacheConfig,
    DataCacheModel,
    DataCacheStats,
    parse_geometry,
)
from repro.datacache.runtime import DataCacheRuntime
from repro.datacache.system import (
    attach_datacache,
    build_datacache,
    data_window,
)

__all__ = [
    "DataCacheConfig",
    "DataCacheModel",
    "DataCacheRuntime",
    "DataCacheStats",
    "attach_datacache",
    "build_datacache",
    "data_window",
    "parse_geometry",
]
