"""Experiment-grid acceptance bench: fidelity, claim rate, fan-out.

Quantifies the grid subsystem's contract on a real store file:

* **fidelity** — a grid sweep's rows are bit-identical to a plain
  single-process ``run_campaign`` of the same points (hard assert), and
  the campaign then answers entirely from the shared store (hard
  assert on the cache-hit count);
* **claim rate** — raw claim/complete transactions per second on a WAL
  store file, the protocol's coordination ceiling (reported, plus a
  deliberately loose floor that only catches order-of-magnitude
  regressions);
* **fan-out** — two worker subprocesses sharing one store file drain
  the grid with every point computed exactly once (hard asserts on the
  per-row results and the attempt counters; wall-clock reported).

A full run writes ``benchmarks/results/BENCH_grid.json``.
``GRID_SMOKE=1`` shrinks workloads for CI runners, keeps the fidelity
asserts strict and writes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.engine import JsonStore
from repro.faultlab import CampaignSpec, run_campaign
from repro.faultlab import campaign as faultsim_campaign
from repro.grid import config_from_dict, grid_status, plan, run_workers, work_loop

SMOKE = os.environ.get("GRID_SMOKE") == "1"

DENSITIES = ([0.02, 0.05, 0.1, 0.2] if SMOKE else
             [round(0.02 + 0.02 * i, 2) for i in range(10)])
TRIALS = 400 if SMOKE else 8000
BATCH_SIZE = 100 if SMOKE else 1000
CROSSBAR_N = 8
#: Synthetic rows for the raw claim-rate measurement.
CLAIM_ROWS = 200 if SMOKE else 2000
#: Loose floor: catches an accidental O(rows) table scan per claim or a
#: sleep sneaking onto the claim path, not runner-to-runner noise.
CLAIM_RATE_FLOOR = 50.0

ARTIFACT = pathlib.Path(__file__).parent / "results" / "BENCH_grid.json"

_REPORT: dict = {
    "smoke": SMOKE,
    "config": {
        "densities": DENSITIES,
        "trials": TRIALS,
        "batch_size": BATCH_SIZE,
        "crossbar_n": CROSSBAR_N,
        "claim_rows": CLAIM_ROWS,
    },
}


def _grid_config(workers: int = 1):
    return config_from_dict({
        "name": "bench-grid",
        "family": "faultsim",
        "workers": workers,
        "grid": {"density": DENSITIES},
        "fixed": {"n": CROSSBAR_N, "trials": TRIALS,
                  "batch_size": BATCH_SIZE, "seed": 11},
    })


def _campaign_spec():
    return CampaignSpec(
        n_values=(CROSSBAR_N,), k_values=(0,),
        densities=tuple(DENSITIES), trials=TRIALS,
        batch_size=BATCH_SIZE, seed=11)


def test_grid_matches_direct_campaign(tmp_path):
    config = _grid_config()
    store_path = str(tmp_path / "fidelity.sqlite")

    start = time.perf_counter()
    with JsonStore(store_path) as store:
        grid_id, keys, _ = plan(config, store)
        tally = work_loop(config, grid_id, store, "bench")
        grid_seconds = time.perf_counter() - start
        assert tally["done"] == len(keys) and not tally["failed"]
        rows = {row.point_key: row for row in store.grid_rows_for(grid_id)}

        # The direct campaign on a *fresh* store is the ground truth.
        start = time.perf_counter()
        direct = run_campaign(_campaign_spec())
        direct_seconds = time.perf_counter() - start
        for estimate in direct.estimates:
            row = rows[estimate.point.key()]
            assert row.result == faultsim_campaign.payload_for(estimate)

        # Sharing the grid's store, the campaign recomputes nothing.
        shared = run_campaign(_campaign_spec(), store=store)
        assert shared.cache_hits == len(keys)
        assert shared.trials_sampled == 0

    _REPORT["fidelity"] = {
        "points": len(keys),
        "grid_seconds": round(grid_seconds, 4),
        "direct_seconds": round(direct_seconds, 4),
        "orchestration_overhead": round(
            grid_seconds / direct_seconds - 1.0, 4),
        "campaign_cache_hits_from_grid": shared.cache_hits,
    }


def test_claim_protocol_rate(tmp_path):
    store_path = str(tmp_path / "claims.sqlite")
    with JsonStore(store_path) as store:
        store.grid_add_points(
            "bench-claims",
            [(f"row/{index}", {"index": index}, None)
             for index in range(CLAIM_ROWS)])
        start = time.perf_counter()
        claimed = 0
        while True:
            row = store.grid_claim("bench-claims", "bench", 300.0)
            if row is None:
                break
            assert store.grid_complete(
                "bench-claims", row.point_key, "bench", {"ok": True})
            claimed += 1
        elapsed = time.perf_counter() - start
    assert claimed == CLAIM_ROWS
    rate = claimed / elapsed
    assert rate > CLAIM_RATE_FLOOR, (
        f"claim/complete rate collapsed: {rate:.0f}/s "
        f"(floor {CLAIM_RATE_FLOOR}/s)")
    _REPORT["claim_rate"] = {
        "rows": claimed,
        "seconds": round(elapsed, 4),
        "claims_per_second": round(rate, 1),
    }


def test_two_worker_fanout_bit_identical(tmp_path):
    config = _grid_config(workers=2)
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps({
        "name": "bench-grid", "family": "faultsim", "workers": 2,
        "grid": {"density": DENSITIES},
        "fixed": {"n": CROSSBAR_N, "trials": TRIALS,
                  "batch_size": BATCH_SIZE, "seed": 11},
    }))
    store_path = str(tmp_path / "fanout.sqlite")
    with JsonStore(store_path) as store:
        grid_id, keys, _ = plan(config, store)
    start = time.perf_counter()
    failures = run_workers(config, str(config_path), grid_id, store_path,
                           workers=2)
    elapsed = time.perf_counter() - start
    assert failures == 0
    with JsonStore(store_path) as store:
        status = grid_status(store, grid_id)
        rows = store.grid_rows_for(grid_id)
    assert status["finished"] and status["counts"] == {"done": len(keys)}
    # Exactly one execution per point: no retries means no double work.
    assert all(row.attempts == 1 for row in rows)
    direct = {estimate.point.key(): faultsim_campaign.payload_for(estimate)
              for estimate in run_campaign(_campaign_spec()).estimates}
    for row in rows:
        assert row.result == direct[row.point_key]
    _REPORT["fanout"] = {
        "workers": 2,
        "points": len(keys),
        "wall_seconds": round(elapsed, 4),
        "workers_used": sorted({row.worker for row in rows}),
    }


def test_write_artifact():
    if not SMOKE:
        ARTIFACT.write_text(json.dumps(_REPORT, indent=2, sort_keys=True)
                            + "\n")
    lines = ["grid bench summary", "=================="]
    fidelity = _REPORT.get("fidelity", {})
    if fidelity:
        lines.append(
            f"fidelity: {fidelity['points']} points, grid "
            f"{fidelity['grid_seconds']}s vs direct "
            f"{fidelity['direct_seconds']}s "
            f"(overhead {fidelity['orchestration_overhead']:+.1%})")
    claim = _REPORT.get("claim_rate", {})
    if claim:
        lines.append(f"claim rate: {claim['claims_per_second']}/s over "
                     f"{claim['rows']} rows")
    fanout = _REPORT.get("fanout", {})
    if fanout:
        lines.append(f"fan-out: {fanout['workers']} workers drained "
                     f"{fanout['points']} points in "
                     f"{fanout['wall_seconds']}s "
                     f"({', '.join(fanout['workers_used'])})")
    print("\n" + "\n".join(lines))
