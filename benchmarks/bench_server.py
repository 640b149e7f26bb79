"""Batch-server acceptance bench: fidelity, coalescing, throughput.

Quantifies the tentpole claims of the serving front-end against a real
listener on an ephemeral localhost port:

* **fidelity** — served synthesis / faultsim / varsweep results are
  bit-identical to direct ``BatchEngine`` / campaign runs (hard assert);
* **coalescing** — N identical concurrent submissions cost exactly one
  computation (hard assert on the server's queue counters);
* **throughput** — jobs/s and trials/s at 1, 4 and 16 concurrent
  clients submitting distinct campaigns (reported, not asserted — timing
  noise must not fail the bench).

A full run writes everything to ``benchmarks/results/BENCH_server.json``
(the committed artifact) and prints the throughput table.
``SERVER_SMOKE=1`` shrinks workloads and concurrency for CI runners,
keeps the fidelity and coalescing asserts strict and writes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import BatchEngine, SynthesisJob, lattice_to_text
from repro.eval.benchsuite import by_name
from repro.faultlab import CampaignSpec, run_campaign
from repro.server import ServerClient, serve_in_thread
from repro.synthesis import synthesize_lattice_dual
from repro.varsim import VariationCampaignSpec, run_variation_campaign

SMOKE = os.environ.get("SERVER_SMOKE") == "1"
CONCURRENCY = (1, 2, 4) if SMOKE else (1, 4, 16)
JOBS_PER_CLIENT = 2 if SMOKE else 4
TRIALS = 30 if SMOKE else 150
COALESCE_CLIENTS = 4 if SMOKE else 8
CROSSBAR_N = 8

ARTIFACT = pathlib.Path(__file__).parent / "results" / "BENCH_server.json"

#: Accumulated across tests, flushed by ``test_write_artifact`` (last).
_REPORT: dict = {
    "smoke": SMOKE,
    "config": {
        "concurrency_levels": list(CONCURRENCY),
        "jobs_per_client": JOBS_PER_CLIENT,
        "trials_per_job": TRIALS,
        "coalesce_clients": COALESCE_CLIENTS,
        "crossbar_n": CROSSBAR_N,
    },
    "served_equals_direct": {},
}


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(processes=1, job_workers=4)
    yield handle
    handle.server.request_stop()
    handle.thread.join(timeout=60)


@pytest.fixture(scope="module")
def client(server):
    made = ServerClient(port=server.port, timeout=600.0)
    made.wait_healthy()
    return made


def _faultsim_payload(seed: int, trials: int = TRIALS) -> dict:
    return {"kind": "faultsim", "n_values": [CROSSBAR_N],
            "k_values": [CROSSBAR_N // 2, CROSSBAR_N],
            "densities": [0.05], "trials": trials,
            "batch_size": max(trials // 2, 1), "seed": seed}


def test_served_synthesis_bit_identical(client):
    benches = ["xnor2", "xor3", "maj3", "mux2"]
    served = client.run({"kind": "synthesis",
                         "jobs": [{"bench": name} for name in benches]})
    with BatchEngine() as engine:
        direct = engine.run([
            SynthesisJob.from_function(by_name(name).function, name)
            for name in benches
        ])
    assert [point["lattice"] for point in served["points"]] == \
           [lattice_to_text(result.lattice) for result in direct]
    assert [point["strategy"] for point in served["points"]] == \
           [result.strategy for result in direct]
    _REPORT["served_equals_direct"]["synthesis"] = True


def test_served_faultsim_bit_identical(client):
    payload = _faultsim_payload(seed=7)
    served = client.run(payload)
    direct = run_campaign(CampaignSpec(
        n_values=(CROSSBAR_N,), k_values=(CROSSBAR_N // 2, CROSSBAR_N),
        densities=(0.05,), trials=payload["trials"],
        batch_size=payload["batch_size"], seed=7))
    assert [point["k_histogram"] for point in served["points"]] == \
           [list(est.k_histogram) for est in direct.estimates]
    _REPORT["served_equals_direct"]["faultsim"] = True


def test_served_varsweep_bit_identical(client):
    trials = 20 if SMOKE else 60
    served = client.run({"kind": "varsweep", "bench": "xnor2",
                         "sigmas": [0.2, 0.5], "crossbar_rows": 8,
                         "crossbar_cols": 8, "trials": trials,
                         "batch_size": max(trials // 2, 1), "seed": 5})
    lattice = synthesize_lattice_dual(by_name("xnor2").function.on)
    direct = run_variation_campaign(VariationCampaignSpec(
        lattice=lattice, sigmas=(0.2, 0.5), crossbar_rows=8,
        crossbar_cols=8, trials=trials,
        batch_size=max(trials // 2, 1), seed=5))
    assert [point["aware_delays"] for point in served["points"]] == \
           [list(est.aware_delays) for est in direct.estimates]
    assert [point["oblivious_delays"] for point in served["points"]] == \
           [list(est.oblivious_delays) for est in direct.estimates]
    _REPORT["served_equals_direct"]["varsweep"] = True


def test_coalescing_one_computation(client):
    """N identical concurrent submissions -> exactly 1 computation."""
    payload = _faultsim_payload(seed=991)
    before = client.stats()["queue"]
    barrier = threading.Barrier(COALESCE_CLIENTS)

    def one_client() -> dict:
        mine = ServerClient(port=client.port, timeout=600.0)
        barrier.wait()
        submitted = mine.submit(payload)
        return {"coalesced": submitted["coalesced"],
                "result": mine.result(submitted["job_id"])}

    with ThreadPoolExecutor(max_workers=COALESCE_CLIENTS) as pool:
        outcomes = [future.result()
                    for future in [pool.submit(one_client)
                                   for _ in range(COALESCE_CLIENTS)]]

    after = client.stats()["queue"]
    computations = after["computations"] - before["computations"]
    coalesced = after["coalesced"] - before["coalesced"]
    assert computations == 1
    assert coalesced == COALESCE_CLIENTS - 1
    answers = {json.dumps(o["result"]["points"]) for o in outcomes}
    assert len(answers) == 1
    _REPORT["coalescing"] = {
        "submissions": COALESCE_CLIENTS,
        "computations": computations,
        "coalesced": coalesced,
        "identical_answers": True,
    }


def test_throughput_by_concurrency(client):
    """Wall-clock throughput of distinct jobs at growing client counts."""
    rows = []
    for level_index, clients in enumerate(CONCURRENCY):
        barrier = threading.Barrier(clients)

        def one_client(client_index: int, _level=level_index) -> int:
            mine = ServerClient(port=client.port, timeout=600.0)
            barrier.wait()
            done = 0
            for job_index in range(JOBS_PER_CLIENT):
                seed = 10_000 * (_level + 1) + 100 * client_index \
                    + job_index
                result = mine.run(_faultsim_payload(seed))
                assert result["state"] == "done"
                done += 1
            return done

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            finished = sum(pool.map(one_client, range(clients)))
        elapsed = time.perf_counter() - start
        assert finished == clients * JOBS_PER_CLIENT
        rows.append({
            "clients": clients,
            "jobs": finished,
            "elapsed_s": round(elapsed, 4),
            "jobs_per_s": round(finished / elapsed, 2),
            "trials_per_s": round(finished * TRIALS / elapsed, 1),
        })
    _REPORT["throughput"] = rows
    print("\n" + "\n".join(
        [f"batch server, faultsim jobs N={CROSSBAR_N} x {TRIALS} trials, "
         f"{JOBS_PER_CLIENT} jobs/client"] +
        [f"clients={row['clients']:>2d}  jobs={row['jobs']:>3d}  "
         f"{row['elapsed_s']:8.3f}s  {row['jobs_per_s']:8.2f} jobs/s  "
         f"{row['trials_per_s']:10.1f} trials/s" for row in rows]))


def test_write_artifact(client):
    """Flush the accumulated report (runs last by definition order)."""
    _REPORT["server"] = {
        "queue": client.stats()["queue"],
        "engine": client.stats()["engine"],
    }
    assert _REPORT["served_equals_direct"] == {
        "synthesis": True, "faultsim": True, "varsweep": True}
    assert _REPORT["coalescing"]["computations"] == 1
    if not SMOKE:
        ARTIFACT.write_text(json.dumps(_REPORT, indent=2, sort_keys=True)
                            + "\n")
