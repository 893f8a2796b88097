"""When is a trace valid for a requested replay configuration?

Replay is only exact when the *application* event stream the trace holds
is invariant under the requested configuration. The rules, derived from
how each system's caching decisions do (or do not) feed back into the
executed instruction stream:

* **baseline** -- no runtime at all. The stream is invariant under any
  clock frequency (wait states change stalls, which replay recomputes,
  never the instruction sequence). Nothing else may vary: the plan is
  baked into the image.
* **swapram** -- the instrumentation is total: calls go through the
  redirection table and intra-function branches through the relocation
  table, and the transform refuses programs that materialise any other
  code address. Function-relative instruction records therefore replay
  exactly under any *policy*, *cache limit*, *frequency*, thrash guard
  or prefetcher -- the replay engine re-runs the real miss handler and
  re-derives every dispatch from its own redirection table. The one
  thing that would break invariance is the application writing into the
  SRAM cache window (self-modifying data aliasing cached code); capture
  flags it and validity refuses it.
* **block** -- chaining rewrites application branch immediates in
  place, so cache state feeds back into the executed stream. A block
  trace replays only against the captured cache geometry (same
  ``cache_limit`` and ``slot_bytes``); frequency may still vary.
* **datacache** -- the data cache never alters the instruction stream
  (lookups are transparent; only timing and the durable write stream
  change), so a *write-through* data cache is a free replay dimension
  over baseline-shaped streams: any geometry, promotion gate or
  sequential cutoff may be requested against a baseline or
  write-through datacache trace. **Write-back is refused**, both as a
  requested configuration and as a captured trace: deferred stores
  decouple the durable FRAM write stream from the recorded store
  events, so the trace no longer witnesses what FRAM held at any
  point mid-run -- set ``DataCacheConfig(mode="through")`` to keep a
  run replayable.

Which knobs a trace's replay takes at all is the captured system's
:mod:`repro.systems` spec ``options``: a knob its stages do not take
is refused (baseline and datacache take none, the block cache no
policy or SwapRAM extension, SwapRAM no ``slot_bytes``).

Anything outside these rules raises :class:`ReplayRefused` with the
full list of reasons; callers that own a fallback (the experiment
runner) log the reasons and execute normally instead.
"""

from repro import systems
from repro.core.policy import POLICIES

#: Every trace header ``system`` string: the registry's capture kinds.
SYSTEMS = tuple(dict.fromkeys(spec.capture_kind for spec in systems.SPECS))


class ReplayRefused(RuntimeError):
    """The requested configuration cannot be replayed from this trace."""

    def __init__(self, reasons):
        if isinstance(reasons, str):
            reasons = [reasons]
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def check_request(
    header,
    policy=None,
    cache_limit=None,
    frequency_mhz=None,
    thrash_guard=None,
    prefetcher=None,
    slot_bytes=None,
    fram_cache=None,
    datacache=None,
):
    """Reasons the request cannot be served from *header*'s trace.

    Returns a list of human-readable reasons; empty means valid. The
    image-hash check happens later, after the engine rebuilds the
    system (:func:`check_image`).
    """
    del frequency_mhz  # always free: wait states are recomputed
    reasons = []
    # The FRAM read cache only models timing (hits skip wait states),
    # so its geometry is a free dimension for *every* system -- like
    # frequency, it can never change the instruction stream.
    reasons.extend(check_fram_cache(fram_cache))
    system = header.get("system")
    if system not in SYSTEMS:
        return [f"unknown system {system!r} in trace header"]
    config = header.get("capture_config") or {}

    if datacache is not None:
        reasons.extend(check_datacache(datacache))
        if system not in ("baseline", "datacache"):
            reasons.append(
                f"a data cache only replays over a baseline-shaped "
                f"stream (baseline or datacache trace), not {system}"
            )

    # A knob replays only where the captured system takes it (the
    # entries sharing a capture kind take the same knobs).
    spec = systems.for_capture(system)
    for name, value in (
        ("policy", policy),
        ("cache_limit", cache_limit),
        ("thrash_guard", thrash_guard),
        ("prefetcher", prefetcher),
        ("slot_bytes", slot_bytes),
    ):
        if value is not None and name not in spec.options:
            reasons.append(f"{system} replay takes no {name}")
    if policy is not None and policy not in POLICIES:
        reasons.append(f"unknown policy {policy!r}")

    if system == "datacache" and config.get("mode") == "back":
        reasons.append(
            "this trace was captured with a write-back data cache "
            "(capture_config mode='back'): deferred stores decouple "
            "the durable FRAM write stream from the recorded store "
            "events, so the trace does not witness FRAM state over "
            "time and is not replayable -- recapture with "
            "DataCacheConfig(mode='through')"
        )
    elif system == "swapram" and header.get("app_writes_cache_window"):
        reasons.append(
            "application writes into the SRAM cache window during "
            "capture: cached code could alias data, so the event "
            "stream is not execution-invariant"
        )
    elif system == "block":
        if cache_limit is not None and cache_limit != config.get("cache_limit"):
            reasons.append(
                f"block-cache chaining patches application branches in "
                f"place, so the stream is only valid for the captured "
                f"geometry (cache_limit={config.get('cache_limit')!r}, "
                f"requested {cache_limit!r})"
            )
        if slot_bytes is not None and slot_bytes != config.get("slot_bytes"):
            reasons.append(
                f"block-cache slot_bytes is fixed at capture "
                f"({config.get('slot_bytes')!r}, requested {slot_bytes!r})"
            )
    return reasons


def check_fram_cache(fram_cache):
    """Reasons a ``(sets, ways, line_bytes)`` request is malformed."""
    if fram_cache is None:
        return []
    try:
        sets, ways, line_bytes = fram_cache
    except (TypeError, ValueError):
        return [
            f"fram_cache must be a (sets, ways, line_bytes) triple, "
            f"got {fram_cache!r}"
        ]
    reasons = []
    for name, value in (("sets", sets), ("ways", ways),
                        ("line_bytes", line_bytes)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            reasons.append(f"fram_cache {name} must be a positive int")
    if not reasons:
        if line_bytes & (line_bytes - 1) or line_bytes < 2:
            reasons.append(
                f"fram_cache line_bytes must be a power of two >= 2, "
                f"got {line_bytes}"
            )
    return reasons


def check_datacache(datacache):
    """Reasons a requested data-cache configuration is not replayable.

    Accepts a :class:`~repro.datacache.cache.DataCacheConfig` or its
    ``as_dict`` form. Malformed geometry is refused with the model's
    own reasons; a well-formed *write-back* request is refused by
    policy -- replay only witnesses the recorded store events, and
    write-back defers the durable FRAM writes those events used to pin.
    """
    from repro.datacache.cache import DataCacheConfig

    if isinstance(datacache, DataCacheConfig):
        config = datacache
    else:
        try:
            config = DataCacheConfig.from_dict(datacache)
        except (TypeError, ValueError):
            return [
                f"datacache must be a DataCacheConfig or its as_dict "
                f"form, got {datacache!r}"
            ]
    reasons = config.problems()
    if not reasons and config.mode == "back":
        reasons.append(
            "a write-back data cache is not replayable: deferred stores "
            "decouple the durable FRAM write stream from the recorded "
            "store events, so replay cannot witness FRAM state over "
            "time -- set DataCacheConfig(mode='through') to keep the "
            "configuration replayable"
        )
    return reasons


def check_image(header, rebuilt_sha256):
    """Reasons the rebuilt image does not match the captured one."""
    expected = header.get("image_sha256")
    if rebuilt_sha256 != expected:
        return [
            f"rebuilt image hash {rebuilt_sha256[:12]} does not match the "
            f"trace's {str(expected)[:12]} (toolchain or source drift -- "
            f"recapture the trace)"
        ]
    return []
