"""Tests for the live-observability layer: timeline, sampler, health.

Everything here drives a private :class:`MetricsRegistry` plus manual
``tick_once()`` calls — frame math must be exact and deterministic, so
no background threads or wall-clock sleeps are involved except where a
thread *is* the thing under test (the sampler).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import quantile_from_counts
from repro.obs.health import HealthMonitor, WatchdogRule, \
    default_server_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import StackSampler
from repro.obs.timeline import MetricsRecorder, read_process_resources


def _recorder(reg: MetricsRegistry, **kwargs) -> MetricsRecorder:
    kwargs.setdefault("interval", 3600.0)  # manual ticks only
    return MetricsRecorder(registry_=reg, **kwargs)


class TestRecorderFrameMath:
    def test_counter_deltas_sum_back_exactly(self):
        reg = MetricsRegistry()
        counter = reg.counter("work_total", "help")
        recorder = _recorder(reg)
        for increment in (3, 0, 7, 1, 12):
            counter.inc(increment)
            recorder.tick_once()
        frames = recorder.history()
        deltas = [f["counters"]["work_total"]["delta"] for f in frames]
        assert deltas == [3, 0, 7, 1, 12]
        assert sum(deltas) == counter.value
        assert frames[-1]["counters"]["work_total"]["value"] == 23

    def test_cursors_are_dense_and_monotonic(self):
        reg = MetricsRegistry()
        recorder = _recorder(reg)
        for _ in range(5):
            recorder.tick_once()
        cursors = [f["cursor"] for f in recorder.history()]
        assert cursors == [1, 2, 3, 4, 5]
        assert recorder.cursor == 5

    def test_history_since_pages_losslessly(self):
        reg = MetricsRegistry()
        recorder = _recorder(reg)
        for _ in range(6):
            recorder.tick_once()
        first = recorder.history(since=0)[:3]
        rest = recorder.history(since=first[-1]["cursor"])
        assert [f["cursor"] for f in first + rest] == [1, 2, 3, 4, 5, 6]
        # limit keeps the *newest* N — the watchdog-window shape.
        assert [f["cursor"] for f in recorder.history(limit=2)] == [5, 6]

    def test_gauges_report_last_value(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", "help")
        recorder = _recorder(reg)
        gauge.set(4)
        recorder.tick_once()
        gauge.set(9)
        recorder.tick_once()
        frames = recorder.history()
        assert [f["gauges"]["depth"] for f in frames] == [4, 9]

    def test_registry_reset_clamps_deltas_at_zero(self):
        reg = MetricsRegistry()
        reg.counter("seen_total", "help").inc(10)
        recorder = _recorder(reg)
        # A "reset": a fresh registry reusing the series name from zero.
        fresh = MetricsRegistry()
        fresh.counter("seen_total", "help").inc(2)
        recorder._registry = fresh
        frame = recorder.tick_once()
        assert frame["counters"]["seen_total"]["delta"] == 0

    def test_rolling_p99_matches_direct_computation(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.QUANTILE_WINDOW", 3)
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "help",
                             buckets=(0.001, 0.01, 0.1, 1.0))
        recorder = _recorder(reg)
        per_tick = [(0.005,) * 10, (0.05,) * 10, (0.5,) * 5]
        for values in per_tick:
            for value in values:
                hist.observe(value)
            recorder.tick_once()
        frames = recorder.history()
        # Re-derive the expected rolling p99 from the summed window
        # deltas — the same bucket interpolation, computed directly.
        window = frames[-3:]
        summed = [0] * 5
        for frame in window:
            for index, count in enumerate(
                    frame["histograms"]["lat_seconds"]["delta_buckets"]):
                summed[index] += count
        expected = quantile_from_counts((0.001, 0.01, 0.1, 1.0),
                                        summed, 0.99)
        assert frames[-1]["histograms"]["lat_seconds"]["p99"] == \
            pytest.approx(expected)
        assert expected > 0.1  # the slow tail dominates the tail quantile

    def test_idle_window_quantiles_read_zero(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.QUANTILE_WINDOW", 2)
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "help")
        hist.observe(5.0)  # pre-recording traffic
        recorder = _recorder(reg)
        recorder.tick_once()
        frame = recorder.tick_once()
        entry = frame["histograms"]["lat_seconds"]
        assert entry["delta"] == 0
        assert entry["p99"] == 0.0  # quiet window, not lifetime latency

    def test_coarse_ring_aggregates_deltas(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.COARSE_STRIDE", 3)
        reg = MetricsRegistry()
        counter = reg.counter("work_total", "help")
        recorder = _recorder(reg)
        for _ in range(6):
            counter.inc(2)
            recorder.tick_once()
        coarse = recorder.history(resolution="coarse")
        assert [f["cursor"] for f in coarse] == [3, 6]
        assert all(f["counters"]["work_total"]["delta"] == 6
                   for f in coarse)
        assert all(f["stride"] == 3 for f in coarse)

    def test_fine_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.CAPACITY", 4)
        reg = MetricsRegistry()
        recorder = _recorder(reg)
        for _ in range(10):
            recorder.tick_once()
        frames = recorder.history()
        assert len(frames) == 4
        assert [f["cursor"] for f in frames] == [7, 8, 9, 10]

    def test_background_thread_ticks_and_stops(self):
        reg = MetricsRegistry()
        recorder = MetricsRecorder(interval=0.01, registry_=reg)
        recorder.start()
        frames = recorder.wait_for(since=0, timeout=5.0)
        recorder.stop()
        assert frames and frames[0]["cursor"] >= 1
        resting = recorder.cursor
        time.sleep(0.05)
        assert recorder.cursor == resting  # no ticks after stop


class TestProcessResources:
    def test_resources_are_positive_and_sane(self):
        resources = read_process_resources()
        assert resources["cpu_seconds"] > 0
        assert resources["rss_bytes"] > 10 * 2**20  # a real interpreter
        assert resources["max_rss_bytes"] >= 0

    def test_frames_carry_resource_section(self):
        reg = MetricsRegistry()
        recorder = _recorder(reg)
        frame = recorder.tick_once()
        assert frame["resources"]["rss_bytes"] > 0
        # The scrape also publishes process gauges into the registry.
        assert "process_resident_memory_bytes" in frame["gauges"]


class TestSampler:
    @staticmethod
    def _spin(stop: threading.Event) -> None:
        # Burn CPU in _spin's own frame (no genexpr) so sampled leaves
        # attribute self-time here deterministically.
        while not stop.is_set():
            total = 0
            for i in range(500):
                total += i * i

    def test_attributes_hot_loop_and_collapses_stacks(self):
        stop = threading.Event()
        worker = threading.Thread(target=self._spin, args=(stop,))
        worker.start()
        try:
            with StackSampler(interval=0.002,
                              thread_ids={worker.ident}) as sampler:
                time.sleep(0.3)
            report = sampler.report()
        finally:
            stop.set()
            worker.join()
        assert report.total > 10
        fraction = report.hot_fraction(
            lambda filename, function: function == "_spin")
        assert fraction > 0.9
        for line in report.collapsed().rstrip("\n").split("\n"):
            path, _, count = line.rpartition(" ")
            assert path and count.isdigit()
            assert ";" in path or ":" in path

    def test_idle_leaves_are_skipped_not_counted(self):
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            with StackSampler(interval=0.005,
                              thread_ids={waiter.ident}) as sampler:
                time.sleep(0.15)
            report = sampler.report()
        finally:
            stop.set()
            waiter.join()
        assert report.total == 0
        assert report.skipped_idle > 5

    def test_top_table_renders(self, monkeypatch):
        monkeypatch.setattr("repro.obs.sampler.TOP_N", 3)
        stop = threading.Event()
        worker = threading.Thread(target=self._spin, args=(stop,))
        worker.start()
        try:
            with StackSampler(interval=0.002,
                              thread_ids={worker.ident}) as sampler:
                time.sleep(0.2)
            report = sampler.report()
        finally:
            stop.set()
            worker.join()
        table = report.render_top(5)
        assert "samples over" in table
        assert "_spin" in table
        payload = report.as_dict()
        assert payload["total_samples"] == report.total
        assert len(payload["top"]) <= 3

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            StackSampler(interval=0.0)


class TestWatchdogs:
    def test_gauge_growth_fires_and_recovers(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("server_queue_depth", "help")
        rule = WatchdogRule("growth", "gauge_growth", "server_queue_depth",
                            threshold=5.0, window=2)
        monitor = HealthMonitor([rule])
        recorder = _recorder(reg, health=monitor)
        for depth in (1, 3, 8):  # strictly growing, last >= threshold
            gauge.set(depth)
            recorder.tick_once()
        status = monitor.status()
        assert status["status"] == "degraded"
        assert status["alerts"][0]["rule"] == "growth"
        alerts = reg.counter("nanoxbar_alerts_total", "watchdog rule "
                             "fire transitions", labels={"rule": "growth"})
        assert alerts.value == 1
        for _ in range(2):  # flat depth: quiet frames clear the alert
            recorder.tick_once()
        assert monitor.status()["status"] == "ok"
        assert alerts.value == 1  # recovery does not re-count

    def test_rate_threshold_with_label_filter(self):
        reg = MetricsRegistry()
        failed = reg.counter("server_jobs_total", "help",
                             labels={"kind": "synthesis",
                                     "state": "failed"})
        done = reg.counter("server_jobs_total", "help",
                           labels={"kind": "synthesis", "state": "done"})
        rule = WatchdogRule("failures", "rate_threshold",
                            "server_jobs_total",
                            label_filter={"state": "failed"},
                            threshold=0.5, window=1)
        monitor = HealthMonitor([rule])
        recorder = _recorder(reg, health=monitor)
        done.inc(1000)  # completions alone must not trip the rule
        recorder.tick_once()
        assert monitor.status()["status"] == "ok"
        failed.inc(10_000)  # elapsed is tiny, so any burst exceeds 0.5/s
        recorder.tick_once()
        assert monitor.status()["status"] == "degraded"

    def test_for_frames_hysteresis_delays_firing(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.QUANTILE_WINDOW", 5)
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "help", buckets=(0.01, 10.0))
        rule = WatchdogRule("slow", "quantile_ceiling", "lat_seconds",
                            threshold=0.01, for_frames=2)
        monitor = HealthMonitor([rule])
        recorder = _recorder(reg, health=monitor)
        hist.observe(5.0)
        recorder.tick_once()
        assert monitor.status()["status"] == "ok"  # one breach: not yet
        hist.observe(5.0)
        recorder.tick_once()
        assert monitor.status()["status"] == "degraded"

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            WatchdogRule("x", "unknown_kind", "s")
        with pytest.raises(ValueError):
            WatchdogRule("x", "gauge_growth", "s", window=0)
        with pytest.raises(ValueError):
            HealthMonitor([WatchdogRule("dup", "gauge_growth", "s"),
                           WatchdogRule("dup", "gauge_growth", "t")])

    def test_default_server_rules_cover_the_three_kinds(self):
        rules = default_server_rules()
        assert {rule.kind for rule in rules} == \
            {"gauge_growth", "quantile_ceiling", "rate_threshold"}
        monitor = HealthMonitor(rules)
        reg = MetricsRegistry()
        recorder = _recorder(reg, health=monitor)
        recorder.tick_once()  # no traffic: everything stays quiet
        assert monitor.status()["status"] == "ok"
        assert len(monitor.status()["rules"]) == 4
