"""Machine-speed gauge for the timed runs.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop runs up to about 40 % slower or faster from one second
(or minute) to the next, while the process gets all of its CPU time.  A
total over a 30-s run does not average that out, so two runs of the same
code can differ by more than any useful regression bound.

The gauge measures that drift next to the program.  While it is running, a
timer signal fires every ``INTERVAL_S`` seconds of wall time and its
handler times ``probe()``, a fixed piece of pure-Python work of the kind
the library does (permutation composition into tuples, dict updates).  The
probes sample the machine's speed uniformly over the timed work, so

    factor = REFERENCE_S / mean probe time

over the probes taken while a piece of work ran (and ``PAD_S`` on either
side, so that a short request still sees several) rescales its time to the
time it would take on a machine where one probe takes ``REFERENCE_S``.
The speed changes on scales of 0.1 s to minutes, so each time gets the
factor of its own stretch of the run.  The handler's own time is
kept in ``spent`` so that callers can take it out of their timings.  The
probe is the benchmark's code, not the library's, so a change to the
library moves the scaled times and not the factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
PAD_S = 0.1
REFERENCE_S = 0.0005

_DEGREE = 61
_BASE = tuple((7 * i + 3) % _DEGREE for i in range(_DEGREE))


def probe() -> int:
    """Fixed work: compose a permutation with itself and record prefixes."""
    p = _BASE
    seen = {}
    for k in range(150):
        p = tuple([_BASE[i] for i in p])
        seen[p[:3]] = k
    return len(seen)


class SpeedGauge:
    """Times ``probe()`` from a SIGALRM timer while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent = 0.0

    def _fire(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self.stamps.append(self.clock())

    def clock(self) -> float:
        """Wall time minus the time spent in the gauge's own probes."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time from ``t0 - PAD_S`` to
        ``t1 + PAD_S`` (``clock()`` times), or of the nearest probe."""
        lo = bisect.bisect_left(self.stamps, t0 - PAD_S)
        hi = bisect.bisect_right(self.stamps, t1 + PAD_S)
        if lo == hi:
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi])
