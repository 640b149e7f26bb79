"""Metrics time-series: a background recorder ticking the registry.

Every read-out the stack had before this module answers "what is the
value *now*"; the :class:`MetricsRecorder` answers "what happened over
the last five minutes".  A daemon thread ticks the process-global
:class:`~repro.obs.metrics.MetricsRegistry` at a fixed interval
(``NANOXBAR_OBS_TICK``, default 1 s) and differences consecutive scrapes
into *frames*:

* counters   → cumulative value, per-tick delta, windowed **rate**;
* gauges     → last value;
* histograms → bucket **deltas** plus rolling p50/p99 computed from the
  deltas of the trailing :data:`QUANTILE_WINDOW` frames
  (so the quantiles track *recent* latency, not the process lifetime);
* per-process resource gauges — CPU time via ``resource.getrusage``
  and current RSS via ``/proc/self/statm`` (peak RSS as the fallback) —
  also published back into the registry as ``process_cpu_seconds_total``
  / ``process_resident_memory_bytes`` so plain scrapes see them.

Frames land in a bounded multi-resolution ring: a *fine* ring at tick
resolution (600 frames ≈ 10 min at the default 1 s tick) and a *coarse*
ring of aggregated frames (one per 30 ticks, 480 retained ≈ 4 h).  Each
frame carries a monotonically increasing ``cursor``; readers page with
:meth:`MetricsRecorder.history` (``since=<cursor>``) and therefore never
miss or double-count a frame while they keep up with the ring capacity —
the contract the server's SSE stream and ``nanoxbar top`` build on.

A :class:`~repro.obs.health.HealthMonitor` attached to the recorder is
evaluated after every tick, which is what degrades ``/healthz``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque

from . import _state
from .metrics import MetricsRegistry, quantile_from_counts, registry

#: Default tick interval (seconds); overridable via ``NANOXBAR_OBS_TICK``.
DEFAULT_TICK_SECONDS = 1.0

#: Fine-ring frames retained (at tick resolution).
CAPACITY = 600

#: Fine frames aggregated into one coarse frame / coarse frames retained.
COARSE_STRIDE = 30
COARSE_CAPACITY = 480

#: Trailing fine frames feeding each frame's rolling p50/p99.
QUANTILE_WINDOW = 30


def tick_interval() -> float:
    """The configured tick interval (``NANOXBAR_OBS_TICK`` or 1 s)."""
    raw = os.environ.get("NANOXBAR_OBS_TICK", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_TICK_SECONDS
    return value if value > 0 else DEFAULT_TICK_SECONDS


def read_process_resources() -> dict:
    """Per-process CPU time and memory, stdlib-only.

    ``resource.getrusage`` supplies CPU seconds and peak RSS on POSIX;
    current RSS comes from ``/proc/self/statm`` where available (Linux),
    falling back to the peak figure.  On platforms without either the
    missing fields are 0.0 — the recorder must never fail a tick over
    resource accounting.
    """
    cpu_seconds = 0.0
    max_rss_bytes = 0.0
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_seconds = usage.ru_utime + usage.ru_stime
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        scale = 1 if sys.platform == "darwin" else 1024
        max_rss_bytes = float(usage.ru_maxrss * scale)
    except (ImportError, ValueError, OSError):  # pragma: no cover - non-POSIX
        times = os.times()
        cpu_seconds = times.user + times.system
    rss_bytes = max_rss_bytes
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        rss_bytes = float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, ValueError, IndexError):
        pass  # no procfs: peak RSS is the best available answer
    return {"cpu_seconds": cpu_seconds, "rss_bytes": rss_bytes,
            "max_rss_bytes": max_rss_bytes}


def _series_key(name: str, labels: str) -> str:
    return f"{name}{{{labels}}}" if labels else name


class MetricsRecorder:
    """Background registry ticker producing a bounded ring of frames.

    Args:
        interval: tick period in seconds (default ``NANOXBAR_OBS_TICK``).
        registry_: the metrics registry to scrape (default the
            process-global one).
        health: a :class:`~repro.obs.health.HealthMonitor` evaluated
            after every tick (optional).

    The rings hold ``CAPACITY`` fine frames and ``COARSE_CAPACITY`` coarse
    frames of ``COARSE_STRIDE`` fine frames each; each frame's rolling
    p50/p99 cover the trailing ``QUANTILE_WINDOW`` fine frames.

    The baseline scrape happens at construction, so the first frame's
    deltas cover only what happened while recording — attaching to a
    long-lived process does not produce a lifetime-sized rate spike.
    Frames from a registry reset (counters moving backwards) clamp
    deltas at zero rather than reporting negative rates.
    """

    def __init__(self, interval: float | None = None,
                 registry_: MetricsRegistry | None = None,
                 health=None):
        self.interval = tick_interval() if interval is None \
            else float(interval)
        if self.interval <= 0:
            raise ValueError("tick interval must be positive")
        self.health = health
        self._registry = registry_ if registry_ is not None else registry()
        self._frames: deque[dict] = deque(maxlen=CAPACITY)
        self._coarse: deque[dict] = deque(maxlen=COARSE_CAPACITY)
        self._cond = threading.Condition()
        self._cursor = 0
        self._prev_counters: dict[str, float] = {}
        self._prev_hists: dict[str, tuple[list[int], float, int]] = {}
        self._prev_mono: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._baseline()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "MetricsRecorder":
        """Start the background tick thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="nanoxbar-obs-recorder", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the tick thread (the ring stays readable)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick_once()
            except Exception:  # pragma: no cover - keep the heart beating
                # A tick must never kill the recorder; the next one gets
                # a fresh chance (and a larger elapsed window).
                pass

    # -- frame production -------------------------------------------------
    def _baseline(self) -> None:
        """Prime previous-state tables without emitting a frame."""
        # Register the process series now so the first frame's CPU delta
        # covers construction→tick, not the whole process lifetime.
        self._publish_resources(read_process_resources())
        for record in self._registry.collect():
            key = _series_key(record["name"], record["labels"])
            if record["kind"] == "counter":
                self._prev_counters[key] = record["value"]
            elif record["kind"] == "histogram":
                self._prev_hists[key] = (list(record["counts"]),
                                         record["sum"], record["count"])
        self._prev_mono = time.perf_counter()

    def tick_once(self) -> dict:
        """Scrape, difference, append and return one frame.

        Called by the background thread each interval; tests and the
        serverless ``nanoxbar top`` path call it directly.
        """
        now_mono = time.perf_counter()
        elapsed = max(1e-9, now_mono - (self._prev_mono or now_mono)) \
            if self._prev_mono is not None else self.interval
        self._prev_mono = now_mono
        resources = read_process_resources()
        self._publish_resources(resources)
        frame: dict = {
            "cursor": 0,  # assigned under the lock below
            "ts": time.time(),
            "elapsed": elapsed,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "resources": resources,
        }
        for record in self._registry.collect():
            key = _series_key(record["name"], record["labels"])
            if record["kind"] == "counter":
                previous = self._prev_counters.get(key, 0)
                delta = max(0, record["value"] - previous)
                self._prev_counters[key] = record["value"]
                frame["counters"][key] = {
                    "value": record["value"],
                    "delta": delta,
                    "rate": delta / elapsed,
                }
            elif record["kind"] == "gauge":
                frame["gauges"][key] = record["value"]
            else:
                frame["histograms"][key] = self._hist_entry(key, record,
                                                            elapsed)
        with self._cond:
            self._cursor += 1
            frame["cursor"] = self._cursor
            self._attach_rolling_quantiles(frame)
            self._frames.append(frame)
            if self._cursor % COARSE_STRIDE == 0:
                recent = list(self._frames)[-COARSE_STRIDE:]
                self._coarse.append(_aggregate_frames(recent))
            self._cond.notify_all()
        if self.health is not None:
            self.health.evaluate(self)
        return frame

    def _hist_entry(self, key: str, record: dict, elapsed: float) -> dict:
        counts = list(record["counts"])
        prev_counts, prev_sum, prev_count = self._prev_hists.get(
            key, ([0] * len(counts), 0.0, 0))
        if len(prev_counts) != len(counts):  # bucket layout changed
            prev_counts, prev_sum, prev_count = [0] * len(counts), 0.0, 0
        delta_buckets = [max(0, c - p)
                         for c, p in zip(counts, prev_counts)]
        delta_count = max(0, record["count"] - prev_count)
        self._prev_hists[key] = (counts, record["sum"], record["count"])
        return {
            "count": record["count"],
            "delta": delta_count,
            "rate": delta_count / elapsed,
            "sum": record["sum"],
            "delta_sum": max(0.0, record["sum"] - prev_sum),
            "bounds": list(record["bounds"]),
            "delta_buckets": delta_buckets,
        }

    def _attach_rolling_quantiles(self, frame: dict) -> None:
        """p50/p99 over the trailing quantile window's bucket deltas.

        Runs under the ring lock, with ``frame`` not yet appended — the
        window is the last ``QUANTILE_WINDOW - 1`` ring frames plus this
        one.  Quantiles are 0.0 while the window holds no observations
        (an idle series reads as quiet, not as its lifetime latency).
        """
        trailing = list(self._frames)[-(QUANTILE_WINDOW - 1):] \
            if QUANTILE_WINDOW > 1 else []
        for key, entry in frame["histograms"].items():
            window = list(entry["delta_buckets"])
            for old in trailing:
                old_entry = old["histograms"].get(key)
                if old_entry is None or \
                        len(old_entry["delta_buckets"]) != len(window):
                    continue
                for index, count in enumerate(old_entry["delta_buckets"]):
                    window[index] += count
            bounds = tuple(entry["bounds"])
            entry["p50"] = quantile_from_counts(bounds, window, 0.50)
            entry["p99"] = quantile_from_counts(bounds, window, 0.99)

    def _publish_resources(self, resources: dict) -> None:
        """Mirror resource readings into the registry (scrape-visible)."""
        if not _state.enabled():
            return
        reg = self._registry
        counter = reg.counter("process_cpu_seconds_total",
                              "process CPU time (user+system)")
        counter.inc(max(0.0, resources["cpu_seconds"] - counter.value))
        reg.gauge("process_resident_memory_bytes",
                  "current resident set size").set(resources["rss_bytes"])
        reg.gauge("process_max_resident_memory_bytes",
                  "peak resident set size").set(resources["max_rss_bytes"])

    # -- read-out ---------------------------------------------------------
    @property
    def cursor(self) -> int:
        with self._cond:
            return self._cursor

    def latest(self) -> dict | None:
        with self._cond:
            return self._frames[-1] if self._frames else None

    def history(self, since: int = 0, limit: int | None = None,
                resolution: str = "fine") -> list[dict]:
        """Frames with ``cursor > since``, oldest first.

        ``limit`` keeps only the newest N of the selection.  Cursors are
        dense on the fine ring, so a reader that polls ``since=<last
        cursor seen>`` faster than ``CAPACITY * interval`` observes every
        frame exactly once.
        """
        if resolution not in ("fine", "coarse"):
            raise ValueError(f"unknown resolution {resolution!r}")
        with self._cond:
            ring = self._frames if resolution == "fine" else self._coarse
            frames = [f for f in ring if f["cursor"] > since]
        if limit is not None and limit >= 0:
            frames = frames[-limit:]
        return frames

    def wait_for(self, since: int, timeout: float | None = None) -> list[dict]:
        """Block until a frame newer than ``since`` exists; return them."""
        with self._cond:
            self._cond.wait_for(lambda: self._cursor > since,
                                timeout=timeout)
        return self.history(since=since)


def _aggregate_frames(frames: list[dict]) -> dict:
    """Fold consecutive fine frames into one coarse frame.

    Counter deltas sum (rates re-derive from the summed elapsed), gauges
    keep their last value, histogram bucket deltas sum and the quantiles
    re-derive from the summed deltas; the coarse cursor/timestamp are the
    last fine frame's.
    """
    if not frames:
        raise ValueError("cannot aggregate zero frames")
    last = frames[-1]
    elapsed = sum(f["elapsed"] for f in frames)
    out: dict = {
        "cursor": last["cursor"],
        "ts": last["ts"],
        "elapsed": elapsed,
        "stride": len(frames),
        "counters": {},
        "gauges": dict(last["gauges"]),
        "histograms": {},
        "resources": dict(last["resources"]),
    }
    keys = {k for f in frames for k in f["counters"]}
    for key in keys:
        delta = sum(f["counters"][key]["delta"]
                    for f in frames if key in f["counters"])
        value = last["counters"][key]["value"] \
            if key in last["counters"] else delta
        out["counters"][key] = {"value": value, "delta": delta,
                                "rate": delta / max(elapsed, 1e-9)}
    hist_keys = {k for f in frames for k in f["histograms"]}
    for key in hist_keys:
        entries = [f["histograms"][key] for f in frames
                   if key in f["histograms"]]
        bounds = entries[-1]["bounds"]
        delta_buckets = [0] * len(entries[-1]["delta_buckets"])
        delta = 0
        delta_sum = 0.0
        for entry in entries:
            if len(entry["delta_buckets"]) != len(delta_buckets):
                continue
            for index, count in enumerate(entry["delta_buckets"]):
                delta_buckets[index] += count
            delta += entry["delta"]
            delta_sum += entry["delta_sum"]
        out["histograms"][key] = {
            "count": entries[-1]["count"],
            "delta": delta,
            "rate": delta / max(elapsed, 1e-9),
            "sum": entries[-1]["sum"],
            "delta_sum": delta_sum,
            "bounds": list(bounds),
            "delta_buckets": delta_buckets,
            "p50": quantile_from_counts(tuple(bounds), delta_buckets, 0.50),
            "p99": quantile_from_counts(tuple(bounds), delta_buckets, 0.99),
        }
    return out


#: Module-level singleton for surfaces that want "the" recorder without
#: owning one (``nanoxbar top --local``).  Created lazily, never started
#: implicitly.
_LOCAL: MetricsRecorder | None = None
_LOCAL_LOCK = threading.Lock()


def local_recorder() -> MetricsRecorder:
    """The process-local recorder, created on first use."""
    global _LOCAL
    with _LOCAL_LOCK:
        if _LOCAL is None:
            _LOCAL = MetricsRecorder()
        return _LOCAL
