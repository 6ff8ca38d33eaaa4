"""Machine-speed meter: rescales measured times to a fixed reference speed.

On a shared host the same pure-Python work runs up to 45% slower from one
few-second stretch to the next (measured on a 2-vCPU Xeon VM), and CPU time
drifts with wall time, so raw timings of identical runs spread by 10-15%.
While a :class:`Meter` is open, a SIGALRM timer interrupts the benchmark
every ``INTERVAL_S`` of wall time, including in the middle of a program
call, and times a fixed kernel of the benchmark's own code in the style of
frenetlift (small-object series arithmetic, libm calls).  A call's time,
less the time spent in the kernel, is reported as ``t * REFERENCE_S / k``,
where ``k`` is the mean kernel time over the call and a quarter second on
either side: the time the call would take on a machine where the kernel
takes ``REFERENCE_S``.  The kernel never
changes with the program, so a slower program still reads slower.  Sampling
inside the call matters for long calls: for 13 s ``verify`` calls, probes
taken only before and after each call doubled the spread instead of
reducing it.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass

# Mean kernel time on the 2-vCPU Intel Xeon VM (Python 3.11.7) where the
# benchmark was defined; rescaled times read as seconds on that machine.
REFERENCE_S = 4.5e-4
INTERVAL_S = 0.05
# Samples on each side of a timing that join its speed estimate: drift moves
# on a scale of seconds, and a 0.15 s call holds only two or three samples.
PAD = 5


class _Series:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        return _Series(tuple(sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))))

    def __add__(self, other):
        return _Series(tuple(x + y for x, y in zip(self.c, other.c)))


def _sin_cos(u: _Series) -> tuple[_Series, _Series]:
    uc = u.c
    s = [math.sin(uc[0])]
    c = [math.cos(uc[0])]
    for k in range(1, len(uc)):
        s.append(sum(j * uc[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * uc[j] * s[k - j] for j in range(1, k + 1)) / k)
    return _Series(tuple(s)), _Series(tuple(c))


def _kernel() -> float:
    t = _Series((0.7, 1.0, 0.0, 0.0, 0.0, 0.0))
    k = _Series((0.2, 0.0, 0.0, 0.0, 0.0, 0.0))
    acc = t
    for _ in range(12):
        s, c = _sin_cos(acc * k)
        acc = s * c + t
    return acc.c[0]


class Meter:
    """Samples the kernel every INTERVAL_S while open; times work through it."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the sampler, kernel included
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        # The collector stays off so the program's heap cannot leak into it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def timed(self, fn):
        """Run fn(); return (result, Timing).  Raw seconds exclude the sampler."""
        first, spent = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0 - (self.spent - spent)
        return result, Timing(raw, first, len(self.samples))

    def rescaled(self, timing: "Timing") -> float:
        """Seconds at the reference speed, from the samples taken during the
        timed work and PAD samples on each side, once those exist."""
        window = self.samples[max(timing.first - PAD, 0):timing.end + PAD]
        return timing.raw * REFERENCE_S / statistics.fmean(window)


@dataclass(frozen=True)
class Timing:
    raw: float   # wall seconds, less the sampler's own time
    first: int   # index of the first sample taken during the work
    end: int     # one past the last such sample
