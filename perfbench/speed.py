"""Samples the host's speed inside a running benchmark process.

The benchmark host slows down by up to 2x for seconds to minutes at a
time when other tenants load it; the guest sees no steal time and has
no hardware counters, and each CPU slows independently of the other.
Raw times measured minutes apart therefore differ by up to 40% for the
same work, which no run structure removes.

:class:`SpeedProbe` measures the slow-down where it happens: an
interval timer interrupts the process every :data:`PERIOD_S` and the
handler times a fixed pure-Python loop. ``NOMINAL_S / duration`` is
the loop's speed at that instant (1.0 on an unloaded host). The
program, with its larger working set, slows down more than the small
loop: across 44 runs of the four workloads at loop speeds from 0.6 to
1.0, its run time went as ``speed ** -SENSITIVITY``. A phase is
reported as its raw time times ``mean speed ** SENSITIVITY``, i.e. in
seconds of an unloaded host; the raw times and speeds stay in every
run record. The handler costs about 1% of the phase.

It imports only the standard library, so the probe can start before
the program is imported and set-up time is corrected too. Do not
change the loop, :data:`NOMINAL_S` or :data:`SENSITIVITY` without
measuring the baseline again: each rescales every corrected time.
"""

from __future__ import annotations

import signal
import time

#: Seconds between samples.
PERIOD_S = 0.01

#: Iterations of the timed loop.
LOOPS = 1500

#: Duration of the timed loop on an unloaded benchmark host.
NOMINAL_S = 110e-6

#: How much more the program slows down than the loop (the fitted
#: exponent of its run time against the loop's speed).
SENSITIVITY = 1.4


class SpeedProbe:
    """Samples the speed every :data:`PERIOD_S` once started."""

    def __init__(self) -> None:
        self.speeds: list[float] = []

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        self.speeds.append(NOMINAL_S / (time.perf_counter() - began))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next sample, to delimit a phase."""
        return len(self.speeds)

    def speed(self, start: int, stop: int | None = None) -> float:
        """Mean sampled speed between two marks."""
        window = self.speeds[start:stop]
        if not window:
            raise RuntimeError("phase shorter than one speed sample")
        return sum(window) / len(window)

    def correction(self, start: int, stop: int | None = None) -> float:
        """Factor from a raw time between two marks to unloaded-host
        seconds."""
        return self.speed(start, stop) ** SENSITIVITY
