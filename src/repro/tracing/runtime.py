"""Process-ambient recorder slot, detached by default.

The orchestration plane is instrumented at module seams that cannot
thread a recorder argument without contaminating every signature
(``pool._run_one``, ``toolchain.cache.BuildCache.get``,
``replay.capture``). Instead there is exactly one process-global
slot, ``None`` unless a campaign opted in, and every producer guards
with::

    recorder = current_recorder()
    span = recorder.span("build.compile") if recorder else NULL_SPAN

When detached that is one global load and one ``is None`` test -- no
object creation, no kwargs dict -- mirroring the zero-cost discipline
of the observation seam's ``board.emit``. Forked workers inherit the
slot (and the recorder's fork safety gives them their own per-PID log
file); ``set_recorder`` returns the previous value so callers restore
it in a ``finally``.
"""

_RECORDER = None


def current_recorder():
    """The ambient :class:`~repro.tracing.span.SpanRecorder`, or ``None``."""
    return _RECORDER


def set_recorder(recorder):
    """Install *recorder* (or ``None``) and return the previous value."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous
