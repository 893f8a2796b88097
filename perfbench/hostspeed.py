"""Host time at a fixed reference speed, for the untraced run.

The benchmark shares a small VM with other machines' work, which slows
this process by up to 2x, in bursts from milliseconds to minutes long.
Two corrections keep its timings comparable between runs:

* every measured phase is timed in *thread CPU seconds*, which leave out
  the time the hypervisor gives this VM's CPU to someone else (steal
  time is subtracted when the kernel accounts for it);
* a short :func:`reference_loop`, which does not touch the simulator,
  runs just before and just after the phase, and inside it every
  ``SAMPLE_EVERY_S`` of CPU time, from a ``SIGPROF`` profiling timer.
  Contention that slows the phase slows the loop beside it as well. The
  loops' own time is taken out of the phase's, and what remains is
  scaled by ``REFERENCE_S / (mean loop time)``: the seconds the phase
  would have taken at the speed the loop runs unloaded on the VM the
  benchmark was defined on.

A change to the simulator moves the phase and not the loop, so it shows
in full; the traced run reports raw ``perf_counter`` time instead.
"""

import random
import signal
import statistics
import time

#: Thread CPU seconds one :func:`reference_loop` takes, unloaded, on the
#: 2-core x86 VM (Xeon at 2.1 GHz, Python 3.11) the benchmark was
#: defined on.
REFERENCE_S = 0.0025

#: CPU seconds between two loops inside a phase: contention bursts
#: shorter than a cell still get sampled, at 2.5 % extra run time.
SAMPLE_EVERY_S = 0.1

_ROUNDS = 12_000


class _Machine:
    """A toy register machine: the loop's method calls, dict and list
    indexing and masked arithmetic are the simulator's kind of work."""

    def __init__(self):
        rng = random.Random(1)
        self.table = {address: rng.randrange(1 << 16) for address in range(1024)}
        self.regs = [0] * 16

    def load(self, address):
        return self.table[address & 1023]


_MACHINE = _Machine()


def reference_loop():
    machine = _MACHINE
    regs = machine.regs
    accumulator = 0
    for step in range(_ROUNDS):
        value = machine.load(accumulator + step)
        regs[step & 15] = (regs[(step + 3) & 15] + value) & 0xFFFF
        accumulator = (accumulator * 33 + value) & 0xFFFF
    return accumulator


def probe():
    """Thread CPU seconds of one reference loop."""
    started = time.thread_time()
    reference_loop()
    return time.thread_time() - started


class ScaledTimer:
    """``timer(function) -> (function(), seconds at reference speed)``.

    Installs its ``SIGPROF`` handler for the life of the process (the
    main thread's, as Python requires), and keeps every loop time it
    took, for the run document.
    """

    def __init__(self, clock=time.thread_time, probe=probe):
        self.clock = clock
        self.probe = probe
        self.probes = []
        self._inside = None  # the running phase's in-phase loop times
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        # A signal still pending when the phase ends lands here with
        # ``_inside`` cleared; its loop would not be part of the phase.
        if self._inside is not None:
            self._inside.append(self.probe())

    def __call__(self, function):
        before = self.probe()
        self._inside = inside = []
        started = self.clock()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            value = function()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._inside = None
            elapsed = self.clock() - started
        loops = [before, *inside, self.probe()]
        self.probes += loops
        seconds = (elapsed - sum(inside)) * REFERENCE_S / statistics.fmean(loops)
        return value, seconds

    def summary(self):
        return {
            "reference_s": REFERENCE_S,
            "probes": len(self.probes),
            "probe_median_s": statistics.median(self.probes) if self.probes else None,
        }
