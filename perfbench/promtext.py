"""Prometheus text exposition: parse ``/api/metrics`` and take deltas.

The served workload reads the server's own counters and histogram sums
before and after its measured window, so no tracing runs inside the server.
"""

from __future__ import annotations

import re

Sample = tuple[str, tuple[tuple[str, str], ...]]

_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse(text: str) -> dict[Sample, float]:
    """Map ``(metric name, sorted label pairs)`` to the sample value."""
    samples: dict[Sample, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def delta(before: dict[Sample, float],
          after: dict[Sample, float]) -> dict[Sample, float]:
    """``after - before`` per sample; a sample first seen after counts from 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples: dict[Sample, float], name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(value for (metric, pairs), value in samples.items()
               if metric == name and wanted <= set(pairs))
