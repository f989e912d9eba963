"""A clock that reads in seconds at a fixed reference CPU speed.

The benchmark shares a host whose CPU speed drifts by tens of percent within
seconds (neighbours' load on shared cores and caches, frequency changes), and
that drift moves every kernel alike.  ``RefClock`` therefore interleaves a
short fixed reference kernel with the work: a SIGALRM every
``SAMPLE_INTERVAL_S`` runs the kernel and times it, and the work done until
the next sample counts at the rate ``REFERENCE_S / <that time>``.  The time
spent in the kernel itself is left out.  A reading of ``now()`` is then the
time the work would have taken on a host on which one reference sample takes
``REFERENCE_S`` seconds.

The kernel is plain Python integer arithmetic at the sizes the package
works with (a small-int loop beside 200- and 1000-bit products, remainders
and shifts, as mpmath's python backend does) and uses no package code, so a
change to the package cannot change it.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Tuple

SAMPLE_INTERVAL_S = 0.4
REFERENCE_ITERATIONS = 5000
# nominal duration of one reference sample: the fast state of a 2-vCPU cloud
# host with Python 3 and no gmpy2
REFERENCE_S = 0.012

_P200 = (1 << 200) - 75
_P1000 = (1 << 1000) - 1


def reference_kernel(iterations: int = REFERENCE_ITERATIONS) -> int:
    a, b, s = _P1000 // 3, _P200 // 7, 0
    for i in range(iterations):
        s = (s * 31 + i) & 0xFFFFFFFF
        b = (b * b + i) % _P200
        a = (a * b + s) % _P1000
        s ^= ((a * a) >> 1000) & 0xFFFF
    return s ^ a ^ b


def reference_sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class RefClock:
    """Monotonic clock in reference seconds.  ``start()`` arms the sampler,
    ``stop()`` disarms it; ``samples`` holds every reference time taken."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        # (reference seconds up to mark, mark on perf_counter, rate)
        self._state: Tuple[float, float, float] = (0.0, time.perf_counter(), 1.0)
        self._previous = None

    def _sample(self, reading: float) -> None:
        taken = reference_sample()
        self.samples.append(taken)
        self._state = (reading, time.perf_counter(), REFERENCE_S / taken)

    def _tick(self, signum: int, frame: Optional[object]) -> None:
        reading, mark, rate = self._state
        self._sample(reading + (time.perf_counter() - mark) * rate)

    def start(self) -> None:
        self._sample(0.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        while True:
            state = self._state
            reading, mark, rate = state
            value = reading + (time.perf_counter() - mark) * rate
            if self._state is state:  # no sample ran in between
                return value
