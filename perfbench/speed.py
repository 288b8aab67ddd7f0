"""A machine-speed probe interleaved with the measured work.

A shared host's speed drifts: a fixed pure-Python loop takes anywhere
from 0.8x to 1.5x its usual time from one second or one minute to the
next, on wall and CPU clocks alike, and no median inside one run removes
that.  So while an untraced run measures, a ``SIGALRM`` timer interrupts
the program every ``INTERVAL_S`` and times ``LOOPS`` passes of a fixed
loop between two of its bytecodes.  The probes sample the machine's
speed while the program runs, not between runs, and the run's timings
are scaled by ``REFERENCE_S / (mean probe time)``: seconds on a machine
where the probe takes ``REFERENCE_S``.  A repeat's timing is scaled by
the probes taken during that repeat, since the speed drifts within a
run too.

The time the probes take is taken out of :func:`clock`, the clock every
timing of the benchmark reads, so a timing covers the program's work
only.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["REFERENCE_S", "SpeedProbe", "clock"]

LOOPS = 30_000
REFERENCE_S = 0.002
INTERVAL_S = 0.1
#: Probes timed at the end of a run that was too short for the timer to
#: fire this often.
MIN_SAMPLES = 5

#: Wall seconds the probes have taken so far in this process.
_spent = 0.0


def clock() -> float:
    """``time.perf_counter()`` minus the time the probes have taken."""
    while True:
        spent = _spent
        now = time.perf_counter()
        # A probe that ran between the two reads would count against the
        # work; read again.
        if spent == _spent:
            return now - spent


class SpeedProbe:
    """Times the probe loop every ``INTERVAL_S`` inside a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, *_: object) -> None:
        global _spent
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        took = time.perf_counter() - start
        self.samples.append(took)
        _spent += took

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """``REFERENCE_S`` over the mean time of ``samples[start:stop]``.

        A window of fewer than ``MIN_SAMPLES`` probes (a stretch shorter
        than half a second) gets the scale of the whole run instead.
        """
        window = self.samples[start:stop]
        if len(window) < MIN_SAMPLES:
            while len(self.samples) < MIN_SAMPLES:
                self._probe()
            window = self.samples
        return REFERENCE_S / statistics.fmean(window)
