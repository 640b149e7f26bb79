"""Batch-engine throughput: cold vs warm cache, serial vs pooled.

Measures functions/second for the standard-suite subset the engine can
race quickly, in four configurations:

* cold cache, serial;
* cold cache, pooled (2 workers);
* warm cache, serial (second run against the persisted store);
* warm cache, pooled.

The interesting ratios: warm/cold shows what the NPN-canonical store
amortises; pooled/serial shows the sharding win on cold races (warm runs
never hit the pool — every job is a cache rewrite).
"""

from __future__ import annotations

import time

from repro.engine import BatchEngine, EngineStats, SynthesisJob
from repro.eval.benchsuite import suite

#: Portfolio kept deterministic and modest so the benchmark stays quick.
STRATEGIES = ("dual", "dreducible", "pcircuit")


def _jobs():
    return [SynthesisJob.from_function(b.function, b.name, STRATEGIES)
            for b in suite(max_vars=5)]


def _timed_run(cache_path: str, processes: int) -> tuple[float, EngineStats]:
    jobs = _jobs()
    start = time.perf_counter()
    with BatchEngine(cache_path=cache_path, processes=processes) as engine:
        results = engine.run(jobs)
        elapsed = time.perf_counter() - start
        assert len(results) == len(jobs)
        stats = engine.stats
    return elapsed, stats


def test_engine_throughput(save_table, tmp_path):
    rows = []
    for label, processes in (("serial", 1), ("pooled-2", 2)):
        cache = str(tmp_path / f"bench-{label}.sqlite")
        cold_elapsed, cold_stats = _timed_run(cache, processes)
        warm_elapsed, warm_stats = _timed_run(cache, processes)
        rows.append((label, "cold", cold_elapsed, cold_stats))
        rows.append((label, "warm", warm_elapsed, warm_stats))
        # Correctness of the cache is asserted; wall-clock ratios are
        # reported, not asserted (timing noise must not fail the bench).
        assert warm_stats.hit_rate == 1.0

    lines = [
        "Batch-engine throughput (standard suite, n <= 5, "
        f"strategies={'/'.join(STRATEGIES)})",
        f"{'mode':10s} {'cache':6s} {'jobs':>5s} {'hits':>5s} "
        f"{'races':>6s} {'time[s]':>8s} {'fn/s':>7s}",
    ]
    for label, phase, elapsed, stats in rows:
        lines.append(
            f"{label:10s} {phase:6s} {stats.jobs:5d} {stats.cache_hits:5d} "
            f"{stats.races_run:6d} {elapsed:8.2f} "
            f"{stats.jobs / elapsed:7.2f}")
    serial_cold = rows[0][2]
    serial_warm = rows[1][2]
    lines.append(f"warm-cache speedup (serial): "
                 f"{serial_cold / serial_warm:.1f}x")
    save_table("engine_throughput", "\n".join(lines))


# -- raw-speed core pass: wide-n dedup ------------------------------------

def test_wide_n_semicanonical_hit_rate(save_table, save_core_speed,
                                       tmp_path):
    """n=7/8 NPN classmates must collapse onto one race via the wide keys.

    Exact canonicalization stops at n=6; beyond it the engine used to key
    every syntactic variant separately (zero cross-variant reuse).  The
    semi-canonical key restores the dedup: a batch of random wide tables
    plus one NPN-transformed mate each should race about half as often as
    it has jobs, and a warm rerun should hit outright.
    """
    import os
    import random

    from repro.boolean import NpnTransform, apply_transform
    from repro.boolean.truthtable import TruthTable

    smoke = os.environ.get("CORE_SPEED_SMOKE") == "1"
    regimes = ((7, 2),) if smoke else ((7, 12), (8, 6))
    rng = random.Random(43)
    report = []
    lines = []
    for n, bases in regimes:
        jobs = []
        for index in range(bases):
            table = TruthTable.from_bits(n, rng.getrandbits(1 << n))
            perm = list(range(n))
            rng.shuffle(perm)
            # input permutation + negation only: the store keeps one
            # lattice per (class, output-polarity) slot, so an output
            # flip is a different slot by design, not a dedup miss
            mate = apply_transform(table, NpnTransform(
                tuple(perm), rng.getrandbits(n), False))
            jobs.append(SynthesisJob.from_function(
                table, f"base-{n}-{index}", ("dual",)))
            jobs.append(SynthesisJob.from_function(
                mate, f"mate-{n}-{index}", ("dual",)))

        cache = str(tmp_path / f"bench-wide-{n}.sqlite")
        start = time.perf_counter()
        with BatchEngine(cache_path=cache, processes=1) as engine:
            engine.run(jobs)
            cold = engine.stats
            cold_elapsed = time.perf_counter() - start
            assert cold.races_run <= bases + 1  # mates collapsed in-run
            reuse = cold.deduped / cold.jobs
        with BatchEngine(cache_path=cache, processes=1) as engine:
            engine.run(jobs)
            assert engine.stats.hit_rate == 1.0  # persisted keys hit
        report.append({
            "n": n,
            "jobs": cold.jobs,
            "races_run": cold.races_run,
            "deduped": cold.deduped,
            "in_run_reuse_fraction": reuse,
            "cold_seconds": cold_elapsed,
        })
        lines.append(
            f"n={n}: {cold.jobs} jobs -> {cold.races_run} races "
            f"({cold.deduped} deduped in-run, cold {cold_elapsed:.2f}s)")

    save_core_speed("wide_n_dedup", {"smoke": smoke, "regimes": report})
    save_table("engine_wide_n", "\n".join(
        ["wide-n semi-canonical dedup (warm rerun hit rate 1.0):"]
        + lines))
