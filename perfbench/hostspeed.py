"""How fast the shared host runs right now, from a fixed probe.

The benchmark's host lends it a few vCPUs whose speed swings by up to
1.7x within seconds as neighbours load the physical cores.  A fixed
probe — scalar Python, small FFTs and a matrix-vector product, the mix
the fleet simulation runs — times that swing, so a run's wall time can
be stated at the host's reference speed: :class:`Sampler` probes from
an interval timer while a run or a set-up is timed, and
:meth:`Sampler.work_s` scales each slice of it by the speed sampled in
that slice.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy

#: Median time of one probe unit on an unloaded 2-vCPU Xeon at 2.0 GHz.
REF_UNIT_S = 4.8e-4
#: Probe units timed at each :class:`Sampler` tick (their median counts).
TICK_UNITS = 3
#: Seconds between :class:`Sampler` ticks during a timed run.
TICK_S = 0.2
#: Seconds between ticks during set-up, which lasts well under a second.
SETUP_TICK_S = 0.04

_BLOCK = numpy.random.default_rng(0).standard_normal((8, 1024))


def _unit() -> float:
    """Time one unit of fixed work."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    for _ in range(6):
        total += float(abs(numpy.fft.rfft(_BLOCK, axis=1)).sum())
        total += float((_BLOCK @ _BLOCK[0]).sum())
    return time.perf_counter() - t0


class Sampler:
    """Samples the host's slowdown every ``tick_s`` while code is timed.

    Use as a context manager around the timed code: it samples once on
    entry, then from a ``SIGALRM`` handler between the program's
    bytecodes, touching none of the program's state.  ``samples`` are
    slowdowns against :data:`REF_UNIT_S` (1.0 = reference speed);
    ``probe_s`` is the time the samples took themselves.
    """

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.tick_s = tick_s
        self.samples: List[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(
            statistics.median(_unit() for _ in range(TICK_UNITS)) / REF_UNIT_S
        )
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def work_s(self, wall_s: float) -> float:
        """``wall_s`` less the probes, at the host's reference speed.

        ``wall_s`` must span the whole ``with`` block.  Ticks are evenly
        spaced in wall time, so the work done per slice is proportional
        to ``1 / slowdown`` of that slice.
        """
        net = wall_s - self.probe_s
        return net * statistics.fmean(1.0 / s for s in self.samples)
