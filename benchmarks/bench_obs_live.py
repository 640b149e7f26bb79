"""Live-observability benchmarks: recorder overhead, SSE integrity,
profiler attribution.

Three independent guarantees behind the history/SSE/dashboard layer:

1. **Recorder overhead** — a :class:`~repro.obs.timeline.MetricsRecorder`
   ticking at its production 1s interval must cost the warm engine path
   under **5%**, measured the same way as ``bench_obs.py``: single batch
   runs alternate recorder-on/recorder-off so both populations sample
   the same machine noise, and the medians are compared.
2. **SSE frame integrity** — a metrics-stream reader attached while 16
   concurrent clients burst jobs at the server must observe a dense,
   gap-free cursor sequence: the dashboard never silently drops a frame
   under load.
3. **Profiler attribution** — the sampling profiler over a serial
   varsweep campaign must attribute at least **80%** of its samples to
   the known hot kernels (the ``varsim``/``xbareval`` compute modules) —
   the tool points at the real work, not at harness plumbing.

On a full run each test merges its section into
``benchmarks/results/BENCH_obs_live.json``.  ``OBS_LIVE_SMOKE=1`` shrinks
sample counts and relaxes the bounds for noisy CI runners but keeps every
measurement shape identical, and writes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import threading
import time

from repro.engine import BatchEngine, SynthesisJob
from repro.eval.benchsuite import by_name, suite
from repro.obs import clear_spans
from repro.obs.sampler import StackSampler
from repro.obs.timeline import MetricsRecorder
from repro.server import ServerClient, serve_in_thread
from repro.synthesis import synthesize_lattice_dual
from repro.varsim import VariationCampaignSpec, run_variation_campaign

SMOKE = os.environ.get("OBS_LIVE_SMOKE") == "1"

#: Timed batch runs per mode (interleaved run-by-run).
SAMPLES = 20 if SMOKE else 150
WARMUP = 3 if SMOKE else 10
#: The acceptance bar: a 1s-tick recorder is effectively free.
OVERHEAD_LIMIT = 0.25 if SMOKE else 0.05

#: Concurrent submitters hammering the server during the SSE read.
BURST_CLIENTS = 4 if SMOKE else 16
BURST_JOBS_EACH = 2 if SMOKE else 4

#: Share of profiler samples that must land in the hot kernels.
ATTRIBUTION_FLOOR = 0.5 if SMOKE else 0.8

STRATEGIES = ("dual", "dreducible", "pcircuit")

ARTIFACT = pathlib.Path(__file__).parent / "results" / "BENCH_obs_live.json"


def _merge_artifact(section: str, payload: dict) -> None:
    """Read-modify-write one section of the combined artifact."""
    if SMOKE:
        return
    report = {}
    if ARTIFACT.exists():
        report = json.loads(ARTIFACT.read_text())
    report[section] = payload
    report["smoke"] = SMOKE
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _jobs():
    return [SynthesisJob.from_function(b.function, b.name, STRATEGIES)
            for b in suite(max_vars=5)]


def test_recorder_overhead_at_production_tick(tmp_path):
    jobs = _jobs()
    cache = str(tmp_path / "bench-obs-live.sqlite")
    recorder = MetricsRecorder(interval=1.0)
    samples: dict[bool, list[float]] = {True: [], False: []}
    with BatchEngine(cache_path=cache, processes=1) as engine:
        try:
            for _ in range(1 + WARMUP):  # first run warms the cache
                engine.run(jobs)
            for index in range(2 * SAMPLES):
                recording = index % 2 == 0
                if recording:
                    recorder.start()
                else:
                    recorder.stop()
                start = time.perf_counter()
                results = engine.run(jobs)
                samples[recording].append(time.perf_counter() - start)
                if index % 50 == 0:
                    clear_spans()
            assert len(results) == len(jobs)
        finally:
            recorder.stop()
            clear_spans()
        assert engine.stats.hit_rate > 0.9

    on_median = statistics.median(samples[True])
    off_median = statistics.median(samples[False])
    overhead = on_median / off_median - 1.0
    _merge_artifact("recorder_overhead", {
        "config": {"jobs_per_batch": len(jobs),
                   "samples_per_mode": SAMPLES,
                   "tick_seconds": recorder.interval},
        "recording_median_seconds": on_median,
        "idle_median_seconds": off_median,
        "overhead_fraction": overhead,
        "overhead_limit": OVERHEAD_LIMIT,
    })
    print("\n" + "\n".join([
        "Recorder overhead (warm engine path, 1s tick, "
        f"{SAMPLES} interleaved runs/mode)",
        f"{'mode':10s} {'median[s]':>10s} {'fn/s':>9s}",
        f"{'recording':10s} {on_median:10.5f} "
        f"{len(jobs) / on_median:9.1f}",
        f"{'idle':10s} {off_median:10.5f} "
        f"{len(jobs) / off_median:9.1f}",
        f"median-vs-median overhead: {100.0 * overhead:+.2f}%  (limit "
        f"{100.0 * OVERHEAD_LIMIT:.0f}%{', smoke' if SMOKE else ''})",
    ]))
    assert overhead < OVERHEAD_LIMIT, (
        f"recorder overhead {overhead:.1%} exceeds {OVERHEAD_LIMIT:.0%}")


def test_sse_loses_no_frames_during_client_burst():
    handle = serve_in_thread(processes=1, job_workers=2, obs_tick=0.05)
    client = ServerClient(port=handle.port, timeout=60.0)
    try:
        client.wait_healthy()
        start_cursor = client.history()["cursor"]
        cursors: list[int] = []
        reader_done = threading.Event()

        def read() -> None:
            reader = ServerClient(port=handle.port, timeout=120.0)
            try:
                for frame in reader.stream_metrics(since=start_cursor):
                    cursors.append(frame["cursor"])
                    if reader_done.is_set():
                        return
            except OSError:
                pass  # server shutdown closes the stream

        reader_thread = threading.Thread(target=read)
        reader_thread.start()

        def burst(worker: int) -> None:
            mine = ServerClient(port=handle.port, timeout=120.0)
            for job in range(BURST_JOBS_EACH):
                bits = (worker * BURST_JOBS_EACH + job) % 15 + 1
                result = mine.run({"kind": "synthesis", "jobs": [{
                    "n": 2, "bits": bits,
                    "label": f"burst-{worker}-{job}"}]})
                assert result["state"] == "done"

        burst_start = time.perf_counter()
        workers = [threading.Thread(target=burst, args=(i,))
                   for i in range(BURST_CLIENTS)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        burst_seconds = time.perf_counter() - burst_start
        # Let the stream drain a few post-burst frames, then stop.
        time.sleep(0.5)
        reader_done.set()
        reader_thread.join(timeout=30)

        expected = list(range(start_cursor + 1,
                              start_cursor + 1 + len(cursors)))
        assert cursors == expected, (
            f"SSE cursor gap: got {cursors[:10]}..., "
            f"expected dense from {start_cursor + 1}")
        assert len(cursors) >= 3
    finally:
        handle.server.request_stop()
        handle.thread.join(timeout=30)

    _merge_artifact("sse_integrity", {
        "config": {"burst_clients": BURST_CLIENTS,
                   "jobs_per_client": BURST_JOBS_EACH,
                   "tick_seconds": 0.05},
        "frames_observed": len(cursors),
        "burst_seconds": burst_seconds,
        "frames_lost": 0,
    })
    print("\n" + "\n".join([
        f"SSE integrity under a {BURST_CLIENTS}-client burst "
        f"({BURST_CLIENTS * BURST_JOBS_EACH} jobs in "
        f"{burst_seconds:.2f}s)",
        f"frames observed: {len(cursors)}  (cursors "
        f"{cursors[0]}..{cursors[-1]}, dense)",
        "frames lost: 0",
    ]))


def test_profiler_attributes_hot_kernels():
    # xor5's dual lattice fills the whole 16x16 crossbar, so each trial
    # does real evaluation work — a multi-second serial window the
    # sampler can see into.
    benchmark = by_name("xor5")
    lattice = synthesize_lattice_dual(benchmark.function.on)
    spec = VariationCampaignSpec(
        lattice=lattice,
        sigmas=(0.1, 0.3, 0.6),
        crossbar_rows=16, crossbar_cols=16,
        trials=120 if SMOKE else 400,
        seed=0,
    )

    def is_hot(filename: str, _function: str) -> bool:
        path = filename.replace("\\", "/")
        return "/repro/varsim/" in path or "/repro/xbareval/" in path

    with StackSampler(interval=0.002,
                      thread_ids={threading.get_ident()}) as sampler:
        result = run_variation_campaign(spec, store=None, processes=1)
    report = sampler.report()
    assert len(result.estimates) == 3

    fraction = report.hot_fraction(is_hot)
    _merge_artifact("profiler_attribution", {
        "config": {"trials": spec.trials, "sigmas": list(spec.sigmas),
                   "interval_seconds": report.interval},
        "total_samples": report.total,
        "hot_fraction": fraction,
        "attribution_floor": ATTRIBUTION_FLOOR,
        "top": [{"function": label, "self": self_count}
                for label, self_count, _total in report.top(5)],
    })
    print("\n" + "\n".join([
        f"Sampling-profiler attribution (serial varsweep, "
        f"{spec.trials} trials x {len(spec.sigmas)} sigmas, "
        f"{report.interval * 1000:.0f}ms interval)",
        f"samples: {report.total}   hot-kernel fraction: "
        f"{100.0 * fraction:.1f}%  (floor "
        f"{100.0 * ATTRIBUTION_FLOOR:.0f}%"
        f"{', smoke' if SMOKE else ''})",
        report.render_top(8),
    ]))
    assert report.total > 20, "profiling window collected too few samples"
    assert fraction >= ATTRIBUTION_FLOOR, (
        f"only {fraction:.1%} of samples attributed to hot kernels")
