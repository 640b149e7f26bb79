"""Host-speed calibration: unit timings in reference seconds.

The host's speed drifts by a quarter or more over tens of seconds, because
other tenants share its cores and caches.  A fixed pure-Python loop is
timed before and after every unit of work (one synthesis call, one
experiment, one grid drain, one block of requests).  The unit's wall time
is scaled by ``REFERENCE_LOOP_S`` over the mean of those two loop times,
which gives its *reference seconds*: the wall time it would take on a host
that runs the loop in ``REFERENCE_LOOP_S``.  The raw wall time is kept
alongside it.
"""

from __future__ import annotations

import time

#: Reference duration of one calibration loop.
REFERENCE_LOOP_S = 0.015
_LOOP_ITERATIONS = 150_000


def loop_seconds() -> float:
    """Wall seconds of the fixed calibration loop, run now."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Clock:
    """Accumulates raw and reference seconds over the units of one pass."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.reference = 0.0
        self._loop = loop_seconds()
        self._start = 0.0

    def __enter__(self) -> Clock:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.add(time.perf_counter() - self._start)

    def add(self, seconds: float) -> None:
        """Count one unit of ``seconds`` that just ended."""
        loop = loop_seconds()
        self.raw += seconds
        self.reference += seconds * REFERENCE_LOOP_S / ((self._loop + loop) / 2)
        self._loop = loop
