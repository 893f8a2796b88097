"""Trace capture + replay fast path for cache/policy ablations.

Run a benchmark once through the real CPU (``capture``), serialize its
canonical memory-event stream, then drive the SwapRAM / block-cache /
baseline cache, cost and energy models from the trace (``replay``) --
bit-identical totals at a fraction of the wall clock. See
``docs/replay.md`` for the format and the validity rules.
"""

from repro.replay.capture import CaptureError, capture, capture_source
from repro.replay.engine import (
    AS_CAPTURED,
    ReplayEngine,
    ReplayError,
    ReplayOutcome,
)
from repro.replay.schema import (
    SCHEMA,
    TraceDocument,
    TraceError,
    TraceSchemaError,
    TraceTruncatedError,
    image_sha256,
)
from repro.replay.validity import ReplayRefused

__all__ = [
    "AS_CAPTURED",
    "CaptureError",
    "ReplayEngine",
    "ReplayError",
    "ReplayOutcome",
    "ReplayRefused",
    "SCHEMA",
    "TraceDocument",
    "TraceError",
    "TraceSchemaError",
    "TraceTruncatedError",
    "capture",
    "capture_source",
    "image_sha256",
]
