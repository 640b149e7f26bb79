"""Process-global, thread-safe metrics: counters, gauges, histograms.

The registry is the instrument panel every layer of the stack reports
into — the engine's strategy races, the pool's shard timings, the
campaign iterators, the ``JsonStore`` and the batch server all resolve
instruments here by ``(name, labels)`` and mutate them under per-
instrument locks.  Three read-out faces, all rendered from one walk of
the instruments:

* :meth:`MetricsRegistry.snapshot` — a JSON-serialisable dict (the
  enriched ``/api/stats`` payload and ``nanoxbar stats``), histograms
  summarised as count/sum plus p50/p90/p99 estimated from the fixed
  buckets;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format served at ``GET /api/metrics`` (``_bucket``
  cumulative series with ``le`` labels, ``_sum``, ``_count``);
* :meth:`MetricsRegistry.collect` — one raw record per series, which
  the timeline recorder differences between ticks.

Everything is stdlib-only.  Instruments are cheap enough for hot paths:
an increment is one flag check, one lock acquire and one add; a
histogram observation adds a bisect over ~15 bucket bounds.  The
process-wide :func:`~repro.obs._state.set_enabled` switch turns every
operation into the flag check alone.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable

from . import _state

#: Latency buckets (seconds) tuned for this stack: sub-millisecond cache
#: rewrites up to multi-second campaign points.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_text(labels: tuple[tuple[str, str], ...]) -> str:
    """Prometheus-style label body, e.g. ``strategy="dual",status="ok"``."""
    return ",".join(f'{key}="{_escape(value)}"' for key, value in labels)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line body per the 0.0.4 text exposition spec.

    Backslashes and line feeds must be escaped (``\\`` and ``\\n``);
    carriage returns have no escape in the spec, so they are normalised
    to line feeds first — raw newlines in help text would otherwise
    corrupt the whole exposition.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def quantile_from_counts(bounds: tuple[float, ...],
                         counts: list[int] | tuple[int, ...],
                         q: float) -> float:
    """Bucket-interpolated quantile from one consistent counts copy.

    ``counts`` has one slot per finite bound plus a final ``+Inf`` slot.
    Every quantile computed from the same ``counts`` list agrees with the
    bucket table it came from — the snapshot path relies on this to avoid
    torn reads against the live histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= target and bucket_count > 0:
            if index >= len(bounds):
                # Landed in +Inf: the best bounded answer is the last
                # finite edge.
                return bounds[-1]
            upper = bounds[index]
            fraction = (target - (cumulative - bucket_count)) \
                / bucket_count
            return lower + (upper - lower) * max(0.0, min(1.0, fraction))
        if index < len(bounds):
            lower = bounds[index]
    return bounds[-1]


def _format_value(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if not _state.enabled():
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (queue depth, open readers)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _state.enabled():
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        if not _state.enabled():
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution; quantiles estimated from the buckets."""

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf is implicit; pass finite bounds only")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _state.enabled():
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _state_copy(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 <= q <= 1)."""
        counts, _total_sum, _total = self._state_copy()
        return quantile_from_counts(self.bounds, counts, q)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe instrument directory keyed by ``(name, labels)``.

    One metric *name* holds one kind (and for histograms one bucket
    layout) across every label combination; resolving an existing
    ``(name, labels)`` pair returns the same instrument object, so hot
    paths can cache handles or re-resolve per call interchangeably.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, help, buckets); (name, labels) -> instrument
        self._meta: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    # -- resolution -------------------------------------------------------
    def _resolve(self, kind: str, name: str, help_text: str,
                 labels: dict[str, Any],
                 buckets: tuple[float, ...] | None = None) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_items = tuple(sorted(
            (key, str(value)) for key, value in labels.items()))
        for key, _value in label_items:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        with self._lock:
            meta = self._meta.get(name)
            if meta is None:
                self._meta[name] = (kind, help_text, buckets)
            elif meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {meta[0]}")
            instrument = self._instruments.get((name, label_items))
            if instrument is None:
                if kind == "histogram":
                    bounds = buckets or self._meta[name][2] \
                        or DEFAULT_LATENCY_BUCKETS
                    instrument = Histogram(bounds)
                else:
                    instrument = _KINDS[kind]()
                self._instruments[(name, label_items)] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: dict[str, Any] | None = None,
                **label_kwargs: Any) -> Counter:
        return self._resolve("counter", name, help_text,
                             {**(labels or {}), **label_kwargs})

    def gauge(self, name: str, help_text: str = "",
              labels: dict[str, Any] | None = None,
              **label_kwargs: Any) -> Gauge:
        return self._resolve("gauge", name, help_text,
                             {**(labels or {}), **label_kwargs})

    def histogram(self, name: str, help_text: str = "",
                  buckets: Iterable[float] | None = None,
                  labels: dict[str, Any] | None = None,
                  **label_kwargs: Any) -> Histogram:
        bounds = tuple(float(b) for b in buckets) if buckets else None
        return self._resolve("histogram", name, help_text,
                             {**(labels or {}), **label_kwargs}, bounds)

    # -- read-out ---------------------------------------------------------
    def _series(self) -> list[tuple[str, dict]]:
        """The one walk of every instrument, sorted by ``(name, labels)``.

        Each series is its metric's help text and its :meth:`collect`
        record.  A histogram's ``(counts, sum, count)`` is copied once, so
        its buckets, count and every quantile agree under concurrent
        writes.
        """
        with self._lock:
            meta = dict(self._meta)
            items = sorted(self._instruments.items())
        series = []
        for (name, labels), instrument in items:
            kind, help_text, _buckets = meta[name]
            record: dict = {"kind": kind, "name": name,
                            "labels": _label_text(labels)}
            if kind == "histogram":
                counts, total_sum, total = instrument._state_copy()
                record.update(bounds=instrument.bounds, counts=counts,
                              sum=total_sum, count=total)
            else:
                record["value"] = instrument.value
            series.append((help_text, record))
        return series

    def snapshot(self) -> dict:
        """JSON-serialisable state of every instrument."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for _help, record in self._series():
            kind, labels = record["kind"], record["labels"]
            table = out[kind + "s"].setdefault(record["name"], {})
            if kind != "histogram":
                table[labels] = record["value"]
                continue
            bounds, counts = record["bounds"], record["counts"]
            table[labels] = {
                "count": record["count"],
                "sum": record["sum"],
                "p50": quantile_from_counts(bounds, counts, 0.50),
                "p90": quantile_from_counts(bounds, counts, 0.90),
                "p99": quantile_from_counts(bounds, counts, 0.99),
                "buckets": {
                    **{_format_value(bound): count
                       for bound, count in zip(bounds, counts)},
                    "+Inf": counts[-1],
                },
            }
        return out

    def collect(self) -> list[dict]:
        """Raw per-series read-out for the timeline recorder.

        One record per ``(name, labels)`` series; histogram records carry
        a consistent ``(counts, sum, count)`` copy plus the bucket bounds
        so callers can difference scrapes without re-parsing exposition
        text.  ``labels`` is the exposition-format label body (the same
        key :meth:`snapshot` uses).
        """
        return [record for _help, record in self._series()]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        previous = None
        for help_text, record in self._series():
            name, kind = record["name"], record["kind"]
            labels = record["labels"]
            if name != previous:
                previous = name
                if help_text:
                    lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {kind}")
            suffix = f"{{{labels}}}" if labels else ""
            if kind != "histogram":
                lines.append(f"{name}{suffix} {_format_value(record['value'])}")
                continue
            prefix = f"{labels}," if labels else ""
            cumulative = 0
            for bound, bucket_count in zip((*record["bounds"], math.inf),
                                           record["counts"]):
                cumulative += bucket_count
                lines.append(f'{name}_bucket{{{prefix}le="'
                             f'{_format_value(bound)}"}} {cumulative}')
            lines.append(f"{name}_sum{suffix} {_format_value(record['sum'])}")
            lines.append(f"{name}_count{suffix} {record['count']}")
        return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry every subsystem reports into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY
