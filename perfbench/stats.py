"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer and its value is set by one or two outliers.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def tail_percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)

