"""One-call attach/finish glue for tracing a built system.

:class:`TraceSession` wires the three observability pieces together for
any runnable the builders produce -- a baseline :class:`Board` or a
:class:`~repro.toolchain.build.System` (see :mod:`repro.systems`):

* a :class:`~repro.obs.timeline.Timeline` stamped from the board's
  live counters, subscribed to the runtime's events;
* a :class:`~repro.obs.funcmap.FunctionMap` built for the system
  flavour (NVM symbols, runtime areas, live SRAM cache state);
* a :class:`~repro.obs.collector.Collector` subscribed to the board's
  steps through the observation seam (:mod:`repro.machine.observe`).

Typical use::

    system = build_swapram(source, PLANS["unified"])
    session = TraceSession.attach(system)
    result = system.run()
    session.finish(result)
    write_trace(path, perfetto_trace(session))
"""

from repro.machine.observe import observe, unobserve
from repro.metrics.registry import PhaseTimer
from repro.obs.collector import Collector
from repro.obs.funcmap import build_function_map
from repro.obs.timeline import Timeline, occupancy_intervals

_TRACED_PHASE = "traced-run"


class TraceSession:
    """A live tracing attachment to one board/system."""

    def __init__(self, target, board, timeline, collector, timer=None):
        self.target = target
        self.board = board
        self.timeline = timeline
        self.collector = collector
        self.timer = timer if timer is not None else PhaseTimer()
        self.result = None

    @classmethod
    def attach(cls, target, events_limit=None):
        """Attach tracing to a built (not yet run) system or board."""
        board = getattr(target, "board", target)
        timeline = Timeline(board, limit=events_limit)
        funcmap = build_function_map(target)
        collector = Collector(board, funcmap, timeline=timeline).attach()
        observe(board, timeline)
        # Host wall-clock flows through the shared PhaseTimer API (see
        # repro.metrics.registry): the attach->finish span brackets the
        # traced run.
        timer = PhaseTimer().start(_TRACED_PHASE)
        return cls(target, board, timeline, collector, timer=timer)

    def finish(self, result=None):
        """Detach, close open call frames, and freeze the session."""
        if self.timer.running(_TRACED_PHASE):
            self.timer.stop(_TRACED_PHASE)
        self.collector.detach()
        self.collector.finish()
        unobserve(self.board, self.timeline)
        if result is None and self.board.bus.halted:
            result = self.board.result()
        self.result = result
        return self

    # -- views ---------------------------------------------------------------------

    @property
    def events(self):
        return self.timeline.events

    @property
    def profiles(self):
        return self.collector.profiles

    @property
    def call_tree(self):
        return self.collector.root

    @property
    def frequency_mhz(self):
        return self.board.frequency_mhz

    @property
    def energy_model(self):
        return self.board.energy_model

    @property
    def stats(self):
        return getattr(self.target, "stats", None)

    @property
    def host_seconds(self):
        """Host wall-clock between attach and finish (the traced span)."""
        return self.timer.seconds(_TRACED_PHASE)

    def occupancy(self):
        """Cache residency intervals over the whole run."""
        final = self.result.total_cycles if self.result is not None else None
        return occupancy_intervals(self.events, final_cycle=final)
