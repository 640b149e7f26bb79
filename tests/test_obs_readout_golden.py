"""The metrics registry's three read-outs against a committed golden file.

``MetricsRegistry.snapshot`` (the ``/api/stats`` metrics and ``nanoxbar
stats``), ``render_prometheus`` (``/api/metrics``) and ``collect`` (the
timeline recorder's scrape) are client-visible bytes.  A fresh registry
holding labelled counters (label values that need escaping included),
gauges, histograms with custom buckets, one observation past the last
bound and one empty histogram is read out and compared, order included,
with ``tests/data/metrics_readout_golden.json``.

Only a change that means to move the exposition regenerates it::

    PYTHONPATH=src python tests/test_obs_readout_golden.py --write
"""

from __future__ import annotations

import json
import pathlib

from repro.obs import MetricsRegistry

GOLDEN = pathlib.Path(__file__).parent / "data" / "metrics_readout_golden.json"


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    requests = "requests by route and status"
    reg.counter("app_requests_total", requests,
                labels={"route": "/a", "status": 200}).inc(3)
    reg.counter("app_requests_total", requests,
                labels={"route": 'quote"back\\slash\nline',
                        "status": 500}).inc()
    reg.counter("app_requests_total", requests,
                labels={"route": "/a", "status": 404}).inc(2)
    reg.counter("app_bytes_total", "help with a back\\slash,\r\na CRLF "
                "and a\rlone CR").inc(2.5)
    reg.counter("app_silent_total")  # no help text, never incremented
    reg.gauge("app_depth", "queue depth").set(3)
    reg.gauge("app_offset", "a signed float", labels={"side": "left"}).set(
        -1.5)
    reg.gauge("app_offset", "a signed float", labels={"side": "right"}).inc(
        0.25)
    latency = reg.histogram("app_latency_seconds", "latency",
                            buckets=(0.1, 1.0, 10.0),
                            labels={"endpoint": "/x"})
    for value in (0.05, 0.1, 0.5, 0.5, 5.0, 50.0):  # 0.1 sits on a bound
        latency.observe(value)
    reg.histogram("app_latency_seconds", "latency",
                  labels={"endpoint": "/y"}).observe(0.2)
    reg.histogram("app_empty_seconds", "never observed", buckets=(1.0, 2.0))
    return reg


def _readout() -> dict:
    reg = _registry()
    return {"snapshot": reg.snapshot(),
            "prometheus": reg.render_prometheus(),
            "collect": reg.collect()}


def _text(value) -> str:
    """JSON text in the value's own key order (tuples become lists)."""
    return json.dumps(value, indent=1)


def test_snapshot_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert _text(_readout()["snapshot"]) == _text(golden["snapshot"])


def test_prometheus_text_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert _readout()["prometheus"] == golden["prometheus"]


def test_collect_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert _text(_readout()["collect"]) == _text(golden["collect"])


def _write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_text(_readout()) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
