"""End-to-end observability tests: traces and metrics through the server.

One in-process listener (``serve_in_thread``) backs the module, so the
span ring and the process-global metrics registry are shared with the
test — a submitted job's trace can be inspected directly.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.obs import recent_spans
from repro.server import ServerClient, serve_in_thread

FAULTSIM_PAYLOAD = {
    "kind": "faultsim", "n_values": [6], "k_values": [3],
    "densities": [0.05], "trials": 20, "batch_size": 10,
}

_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$")


@pytest.fixture(scope="module")
def server():
    # A fast recorder tick keeps the history/SSE tests from sleeping
    # through 1s production frames.
    handle = serve_in_thread(processes=1, job_workers=2, obs_tick=0.05)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    return ServerClient(port=server.port, timeout=120.0)


def _parse_samples(text: str) -> dict[str, float]:
    """Exposition text -> {series-with-labels: value} (skips comments)."""
    samples: dict[str, float] = {}
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        samples[match.group(1) + (match.group(2) or "")] = \
            float(match.group(3))
    return samples


class TestTracePropagation:
    def test_one_job_traces_across_layers(self, client):
        submitted = client.submit({
            "kind": "synthesis",
            "jobs": [{"n": 2, "bits": 0b0110, "label": "trace-probe"}],
        })
        trace_id = submitted["trace_id"]
        assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
        result = client.result(submitted["job_id"])
        assert result["state"] == "done"
        # Spans land in the ring asynchronously relative to the HTTP
        # result; poll briefly for the full set.
        deadline = time.monotonic() + 5.0
        wanted = {"server.queue_wait", "worker.submission",
                  "engine.run_batch", "pool.shard"}
        while time.monotonic() < deadline:
            names = {s["name"] for s in recent_spans(trace_id=trace_id)}
            if wanted <= names:
                break
            time.sleep(0.05)
        assert wanted <= names, f"trace only covered {sorted(names)}"

    def test_status_reports_the_trace_id(self, client):
        submitted = client.submit({
            "kind": "synthesis",
            "jobs": [{"n": 2, "bits": 0b1000, "label": "status-probe"}],
        })
        status = client.status(submitted["job_id"])
        assert status["trace_id"] == submitted["trace_id"]

    def test_coalesced_submission_shares_the_trace(self, client):
        payload = {
            "kind": "synthesis",
            "jobs": [{"n": 2, "bits": 0b0001, "label": "coalesce-probe"}],
        }
        first = client.submit(payload)
        second = client.submit(payload)
        assert second["coalesced"]
        assert second["trace_id"] == first["trace_id"]
        client.result(first["job_id"])


class TestMetricsEndpoint:
    def test_exposition_parses_and_counters_are_monotonic(self, client):
        before = _parse_samples(client.metrics())
        one = client.run({
            "kind": "synthesis",
            "jobs": [{"n": 3, "bits": 0b10010110, "label": "scrape-a"}],
        })
        assert one["state"] == "done"
        two = client.run(FAULTSIM_PAYLOAD)
        assert two["state"] == "done"
        after = _parse_samples(client.metrics())
        # Counter series never move backwards between scrapes.
        for series, value in before.items():
            if series.endswith("_total") or "_total{" in series \
                    or "_bucket{" in series or "_count" in series:
                assert after.get(series, 0) >= value, series
        synth = 'server_jobs_total{kind="synthesis",state="done"}'
        fault = 'server_jobs_total{kind="faultsim",state="done"}'
        assert after[synth] >= before.get(synth, 0) + 1
        assert after[fault] >= before.get(fault, 0) + 1
        assert after["engine_jobs_total"] >= \
            before.get("engine_jobs_total", 0) + 1

    def test_per_family_and_per_strategy_series_present(self, client):
        client.run({
            "kind": "synthesis",
            "jobs": [{"n": 3, "bits": 0b01101001, "label": "series-b"}],
        })
        text = client.metrics()
        assert re.search(
            r'^server_queue_wait_seconds_bucket\{kind="synthesis",'
            r'le="\+Inf"\} [1-9]', text, re.M)
        assert re.search(
            r'^engine_strategy_seconds_count\{strategy="dual"\} [1-9]',
            text, re.M)
        assert "# TYPE server_queue_wait_seconds histogram" in text
        assert "# TYPE engine_strategy_wins_total counter" in text

    def test_content_type_is_prometheus_text(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/api/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "text/plain; version=0.0.4; charset=utf-8"
            response.read()
        finally:
            conn.close()


class TestStatsEndpoint:
    def test_stats_carries_metrics_snapshot_and_spans(self, client):
        client.run({
            "kind": "synthesis",
            "jobs": [{"n": 2, "bits": 0b0111, "label": "stats-probe"}],
        })
        stats = client.stats()
        assert "metrics" in stats and "recent_spans" in stats
        snapshot = stats["metrics"]
        assert snapshot["counters"]["engine_jobs_total"][""] >= 1
        histograms = snapshot["histograms"]["engine_batch_seconds"][""]
        assert histograms["count"] >= 1
        assert {"p50", "p90", "p99", "buckets"} <= set(histograms)
        assert len(stats["recent_spans"]) >= 1
        assert {"name", "trace_id", "span_id", "duration"} <= \
            set(stats["recent_spans"][0])

    def test_stats_carries_health_and_resources(self, client):
        stats = client.stats()
        assert stats["health"]["status"] in ("ok", "degraded")
        assert len(stats["health"]["rules"]) == 4
        assert stats["resources"] is None \
            or stats["resources"]["rss_bytes"] > 0


class TestHistoryEndpoint:
    def test_cursor_pages_are_monotonic_and_lossless(self, client):
        first = client.history()
        deadline = time.monotonic() + 30.0
        second = client.history(since=first["cursor"])
        while not second["frames"] and time.monotonic() < deadline:
            time.sleep(0.1)
            second = client.history(since=first["cursor"])
        cursors = [f["cursor"] for f in first["frames"] + second["frames"]]
        assert cursors == sorted(cursors)
        assert len(set(cursors)) == len(cursors)
        assert all(f["cursor"] > first["cursor"]
                   for f in second["frames"])
        assert second["interval"] == pytest.approx(0.05)

    def test_frames_reflect_served_traffic(self, client):
        before = client.history()["cursor"]
        client.run({
            "kind": "synthesis",
            "jobs": [{"n": 2, "bits": 0b0100, "label": "history-probe"}],
        })
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            frames = client.history(since=before)["frames"]
            done = sum(
                entry["delta"]
                for frame in frames
                for key, entry in frame["counters"].items()
                if key.startswith("server_jobs_total{")
                and 'state="done"' in key)
            if done >= 1:
                break
            time.sleep(0.1)
        assert done >= 1

    def test_bad_query_params_answer_400(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/api/metrics/history?since=banana")
            assert conn.getresponse().status == 400
        finally:
            conn.close()
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/api/metrics/history?resolution=medium")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestSSEStream:
    def test_two_concurrent_readers_see_every_frame(self, client, server):
        start = client.history()["cursor"]
        results: dict[str, list[int]] = {"a": [], "b": []}
        errors: list[BaseException] = []

        def read(name: str) -> None:
            try:
                reader = ServerClient(port=server.port, timeout=60.0)
                for frame in reader.stream_metrics(since=start):
                    results[name].append(frame["cursor"])
                    if len(results[name]) >= 4:
                        return
            except BaseException as error:  # re-raised below
                errors.append(error)

        threads = [threading.Thread(target=read, args=(name,))
                   for name in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        for cursors in results.values():
            # Contiguous from the shared start cursor: no frame lost,
            # none duplicated, for either reader.
            assert cursors == list(range(start + 1, start + 5))

    def test_stream_resumes_from_cursor(self, client, server):
        head = client.history()["cursor"]
        reader = ServerClient(port=server.port, timeout=60.0)
        stream = reader.stream_metrics(since=max(0, head - 2))
        first = next(stream)
        assert first["cursor"] > max(0, head - 2)
        stream.close()


class TestProfileEndpoint:
    def test_collapsed_stacks_are_well_formed(self, client):
        text = client.profile(seconds=0.3, interval_ms=2)
        for line in text.rstrip("\n").split("\n"):
            if not line:
                continue
            path, _, count = line.rpartition(" ")
            assert count.isdigit() and int(count) >= 1, line
            for label in path.split(";"):
                assert ":" in label, line

    def test_json_format_carries_top_table(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("GET", "/api/profile?seconds=0.2&format=json")
            response = conn.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert payload["duration_seconds"] >= 0.2
        assert payload["total_samples"] >= 0
        assert isinstance(payload["top"], list)

    def test_bad_format_answers_400(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/api/profile?seconds=0.1&format=svg")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestDashboard:
    def test_served_page_is_self_contained(self, client, server):
        html = client.dashboard()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<canvas" in html
        assert "EventSource" in html
        assert "/api/metrics/stream" in html
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html and "https://" not in html
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/dashboard")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "text/html; charset=utf-8"
            response.read()
        finally:
            conn.close()


class TestHealthWatchdogs:
    def test_healthz_degrades_and_recovers(self, monkeypatch):
        # A private fast-tick server with a hair-trigger watchdog: the
        # stock rules would need sustained real load to trip.
        from repro.obs import registry
        from repro.obs.health import WatchdogRule

        monkeypatch.setattr("repro.obs.health.CLEAR_AFTER", 3)
        rule = WatchdogRule("probe-errors", "rate_threshold",
                            "probe_errors_total", threshold=0.5,
                            window=2)
        handle = serve_in_thread(obs_tick=0.05, health_rules=(rule,))
        client = ServerClient(port=handle.port, timeout=30.0)
        try:
            client.wait_healthy()
            assert client.health()["status"] == "ok"
            probe = registry().counter("probe_errors_total", "test probe")

            def wait_status(wanted: str) -> dict:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    health = client.health()
                    if health["status"] == wanted:
                        return health
                    if wanted == "degraded":
                        probe.inc(1000)  # keep the error burst going
                    time.sleep(0.05)
                raise AssertionError(
                    f"health status never reached {wanted}: {health}")

            probe.inc(1000)
            degraded = wait_status("degraded")
            assert degraded["alerts"][0]["rule"] == "probe-errors"
            # Burst over: quiet ticks must clear the alert.
            wait_status("ok")
        finally:
            handle.stop()
