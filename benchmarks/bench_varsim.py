"""Varsim throughput: scalar variation sweep vs the batched campaign.

Quantifies the tentpole claims of the variation-campaign engine:

* the batched pipeline (one lognormal ensemble draw + argpartition line
  selection + Bellman-Ford delay relaxation) must beat the scalar
  ``variation_sweep`` loop (per-trial map draw + pure-Python Dijkstra per
  minterm) by >= 10x at 16x16 x 500 trials, like-for-like;
* pooled campaign runs must return bit-identical delay vectors to serial
  ones (the speedup is reported, not asserted — timing noise must not
  fail the bench);
* a second run against the persisted store is pure cache reads.

``VARSIM_SMOKE=1`` shrinks the workloads and relaxes the speedup floor so
the kernels can run as a CI smoke step on noisy shared runners (the
bit-exactness assertions stay strict).
"""

from __future__ import annotations

import os
import random
import time

from repro.eval.benchsuite import by_name
from repro.reliability.variation import variation_sweep
from repro.synthesis import synthesize_lattice_dual
from repro.varsim import VariationCampaignSpec, run_variation_campaign

SMOKE = os.environ.get("VARSIM_SMOKE") == "1"
#: Full-run floor is the acceptance criterion; the smoke floor only guards
#: against the batched path regressing to scalar speed.
MIN_SPEEDUP = 2.0 if SMOKE else 10.0
CROSSBAR = 8 if SMOKE else 16
TRIALS = 80 if SMOKE else 500
SIGMA = 0.5


def _lattice():
    return synthesize_lattice_dual(by_name("xnor2").function.on)


def _campaign_spec(trials: int, sigmas=(SIGMA,),
                   batch_size: int | None = None) -> VariationCampaignSpec:
    # Like-for-like single-batch layout by default; the serial-vs-pooled
    # bench passes a smaller batch_size to exercise the sharded path.
    return VariationCampaignSpec(
        lattice=_lattice(), sigmas=sigmas, crossbar_rows=CROSSBAR,
        crossbar_cols=CROSSBAR, trials=trials,
        batch_size=batch_size or trials, seed=1)


def test_varsim_scalar_vs_batched(benchmark, save_table):
    """The acceptance ratio: batched campaign >= 10x the scalar sweep at
    16x16 x 500 trials, same estimator on both sides."""
    lattice = _lattice()
    # Warm both paths once so neither pays first-call setup in the timing.
    variation_sweep(lattice, [SIGMA], CROSSBAR, CROSSBAR, 8, random.Random(1))
    run_variation_campaign(_campaign_spec(8))

    start = time.perf_counter()
    scalar_points = variation_sweep(lattice, [SIGMA], CROSSBAR, CROSSBAR,
                                    TRIALS, random.Random(1))
    scalar_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: run_variation_campaign(_campaign_spec(TRIALS)),
        rounds=1, iterations=1)
    batched_elapsed = time.perf_counter() - start

    speedup = scalar_elapsed / batched_elapsed
    scalar_point = scalar_points[0]
    estimate = batched.estimates[0]
    save_table("varsim_scalar_vs_batched", "\n".join([
        f"variation sweep, crossbar {CROSSBAR}x{CROSSBAR}, sigma={SIGMA}, "
        f"trials={TRIALS}",
        f"scalar   {scalar_elapsed:8.3f}s  "
        f"({TRIALS / scalar_elapsed:8.0f} trials/s)  "
        f"aware_mean={scalar_point.aware_mean:.3f}  "
        f"oblivious_mean={scalar_point.oblivious_mean:.3f}",
        f"batched  {batched_elapsed:8.3f}s  "
        f"({TRIALS / batched_elapsed:8.0f} trials/s)  "
        f"aware_mean={estimate.aware_mean:.3f}  "
        f"oblivious_mean={estimate.oblivious_mean:.3f}",
        f"speedup  {speedup:8.1f}x",
    ]))
    # Both estimators sample the same distributions (different streams):
    # the qualitative Section IV ordering must hold on each side, and the
    # Monte-Carlo means must agree within sampling noise.
    assert estimate.aware_mean <= estimate.oblivious_mean * 1.02
    assert scalar_point.aware_mean <= scalar_point.oblivious_mean * 1.02
    tolerance = 0.35 if SMOKE else 0.2
    assert abs(estimate.aware_mean - scalar_point.aware_mean) \
        <= tolerance * scalar_point.aware_mean
    assert abs(estimate.oblivious_mean - scalar_point.oblivious_mean) \
        <= tolerance * scalar_point.oblivious_mean
    assert speedup >= MIN_SPEEDUP


def test_varsim_serial_vs_pooled(benchmark, save_table):
    """Campaign-runner throughput across pool sizes, bit-identical results."""
    spec = _campaign_spec(TRIALS, sigmas=(0.1, 0.3, 0.6),
                          batch_size=max(TRIALS // 4, 1))

    def run(processes: int):
        start = time.perf_counter()
        result = run_variation_campaign(spec, processes=processes)
        return time.perf_counter() - start, result

    serial_elapsed, serial_result = benchmark.pedantic(
        lambda: run(1), rounds=1, iterations=1)
    pooled_elapsed, pooled_result = run(2)

    assert [e.aware_delays for e in serial_result.estimates] == \
           [e.aware_delays for e in pooled_result.estimates]
    assert [e.oblivious_delays for e in serial_result.estimates] == \
           [e.oblivious_delays for e in pooled_result.estimates]
    save_table("varsim_serial_vs_pooled", "\n".join([
        f"campaign: {len(serial_result.estimates)} sigmas x {spec.trials} "
        f"trials, crossbar {CROSSBAR}x{CROSSBAR}",
        f"serial   {serial_elapsed:8.3f}s  "
        f"({serial_result.trials_sampled / serial_elapsed:8.0f} trials/s)",
        f"pooled-2 {pooled_elapsed:8.3f}s  "
        f"({pooled_result.trials_sampled / pooled_elapsed:8.0f} trials/s)",
        "results bit-identical: yes",
    ]))


def test_varsim_warm_store(benchmark, save_table, tmp_path):
    """Second run against the persisted store is pure cache reads."""
    spec = _campaign_spec(TRIALS, sigmas=(0.2, 0.5))
    store = str(tmp_path / "campaigns.sqlite")

    start = time.perf_counter()
    cold = run_variation_campaign(spec, store=store)
    cold_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_variation_campaign(spec, store=store),
        rounds=1, iterations=1)
    warm_elapsed = time.perf_counter() - start

    assert cold.cache_hits == 0
    assert warm.cache_hits == len(warm.estimates)
    assert [e.aware_delays for e in cold.estimates] == \
           [e.aware_delays for e in warm.estimates]
    save_table("varsim_warm_store", "\n".join([
        f"campaign store: {len(cold.estimates)} sigmas x {spec.trials} "
        "trials",
        f"cold {cold_elapsed:8.3f}s   warm {warm_elapsed:8.3f}s   "
        f"speedup {cold_elapsed / max(warm_elapsed, 1e-9):6.1f}x",
    ]))
