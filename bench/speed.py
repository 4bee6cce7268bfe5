"""Machine-speed probe: times measured while the machine's speed is sampled.

On a shared host the same work can take 30% longer from one minute to the
next, because neighbours load the physical cores.  A probe samples that
speed while the program runs: every ``INTERVAL_S`` a SIGALRM runs a fixed
pure-Python kernel in the benchmark's main thread and records how long it
took.  A *reference time* is wall time (minus the kernel's own time)
scaled by ``REFERENCE_KERNEL_S / median kernel time``:
the time the interval would have taken at the speed the reference kernel
time stands for.  Program changes do not move the kernel, so they show in
reference times just as in wall times; machine drift mostly cancels.

Python runs signal handlers between bytecodes, so during a long native
call (LAPACK) the sample waits for the call to return; while the main
thread waits on a child process or a worker pool the kernel runs beside
it.  Children and pool workers do not inherit the interval timer.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 250e-6  # the kernel's median on the 2-CPU host the baseline was taken on


def kernel() -> int:
    acc = 0
    for i in range(3000):
        acc += i * i
    return acc


def _sample() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probe:
    """Times intervals (``with probe: ...``) while sampling machine speed.

    One probe pools the kernel samples of all its intervals, so a pass of
    many short calls gets one well-sampled ``scale``.  ``last_s`` is the
    wall time of the latest interval with the kernel's own time removed;
    ``scale`` converts such wall seconds to reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last_s = 0.0

    def __enter__(self):
        self._first = len(self.samples)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append(_sample())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._t0
        self.last_s = elapsed - sum(self.samples[self._first:])
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        if not self.samples:  # every interval was shorter than INTERVAL_S
            self.samples.append(_sample())
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
