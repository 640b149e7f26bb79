"""Observability overhead: the telemetry layer must be nearly free.

Times the warm batch-engine path (every job answered from the
NPN-canonical cache — the hot serving regime where per-job work is a
probe plus a witness rewrite) with the obs subsystem **enabled** vs
**disabled** (:func:`repro.obs.set_enabled`).  The enabled samples pay
for every span, counter and histogram the instrumented stack produces;
the disabled samples pay only the per-operation flag checks.

Machine drift on shared runners swings raw wall-clock far more than the
effect under test, so the bench interleaves at the finest grain: single
batch runs alternate enabled/disabled, both modes sample the same noise
distribution, and the reported figure compares the **medians** of the
two per-run populations — the median throws away the one-sided slow
bursts that sink coarser group-timing designs.

The acceptance bar: enabled-mode overhead stays **under 3%** on the full
bench, which writes ``benchmarks/results/BENCH_obs.json``.  ``OBS_SMOKE=1``
shrinks the sample counts and relaxes the bound for noisy CI runners but
keeps the measurement shape identical, and writes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro.engine import BatchEngine, SynthesisJob
from repro.eval.benchsuite import suite
from repro.obs import clear_spans, set_enabled

SMOKE = os.environ.get("OBS_SMOKE") == "1"
#: Timed batch runs per mode (interleaved run-by-run) after WARMUP
#: untimed runs.
SAMPLES = 20 if SMOKE else 200
WARMUP = 3 if SMOKE else 10
#: Timing noise dominates tiny CI runners; the committed artifact comes
#: from the full bench where the 3% bound is meaningful.
OVERHEAD_LIMIT = 0.25 if SMOKE else 0.03

#: Portfolio kept deterministic and modest so the benchmark stays quick.
STRATEGIES = ("dual", "dreducible", "pcircuit")

ARTIFACT = pathlib.Path(__file__).parent / "results" / "BENCH_obs.json"


def _jobs():
    return [SynthesisJob.from_function(b.function, b.name, STRATEGIES)
            for b in suite(max_vars=5)]


def test_obs_overhead_on_warm_engine_path(tmp_path):
    jobs = _jobs()
    cache = str(tmp_path / "bench-obs.sqlite")
    samples: dict[bool, list[float]] = {True: [], False: []}
    with BatchEngine(cache_path=cache, processes=1) as engine:
        try:
            for _ in range(1 + WARMUP):  # first run warms the cache
                engine.run(jobs)
            for index in range(2 * SAMPLES):
                enabled = index % 2 == 0
                set_enabled(enabled)
                start = time.perf_counter()
                results = engine.run(jobs)
                samples[enabled].append(time.perf_counter() - start)
                if index % 50 == 0:
                    clear_spans()  # keep the ring from growing unbounded
            assert len(results) == len(jobs)
        finally:
            set_enabled(True)
            clear_spans()
        assert engine.stats.hit_rate > 0.9

    enabled_median = statistics.median(samples[True])
    disabled_median = statistics.median(samples[False])
    overhead = enabled_median / disabled_median - 1.0
    report = {
        "smoke": SMOKE,
        "config": {
            "jobs_per_batch": len(jobs),
            "samples_per_mode": SAMPLES,
            "strategies": list(STRATEGIES),
        },
        "enabled_median_seconds": enabled_median,
        "disabled_median_seconds": disabled_median,
        "enabled_min_seconds": min(samples[True]),
        "disabled_min_seconds": min(samples[False]),
        "overhead_fraction": overhead,
        "overhead_limit": OVERHEAD_LIMIT,
    }
    if not SMOKE:
        ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")

    print("\n" + "\n".join([
        "Observability overhead (warm engine path, "
        f"{len(jobs)} jobs/batch, {SAMPLES} interleaved runs/mode)",
        f"{'mode':10s} {'median[s]':>10s} {'fn/s':>9s}",
        f"{'enabled':10s} {enabled_median:10.5f} "
        f"{len(jobs) / enabled_median:9.1f}",
        f"{'disabled':10s} {disabled_median:10.5f} "
        f"{len(jobs) / disabled_median:9.1f}",
        f"median-vs-median overhead: {100.0 * overhead:+.2f}%  (limit "
        f"{100.0 * OVERHEAD_LIMIT:.0f}%{', smoke' if SMOKE else ''})",
    ]))
    assert overhead < OVERHEAD_LIMIT, (
        f"telemetry overhead {overhead:.1%} exceeds {OVERHEAD_LIMIT:.0%}")
