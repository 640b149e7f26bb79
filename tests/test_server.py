"""Tests for the async batch server: protocol, queue, HTTP, client.

A real listener on an ephemeral localhost port (``serve_in_thread``)
backs most tests; served results are compared bit-for-bit against direct
``BatchEngine`` / campaign runs, and the coalescing tests drive genuinely
concurrent clients from a thread pool.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import (
    BatchEngine,
    FaultToleranceSpec,
    SynthesisJob,
    lattice_to_text,
)
from repro.eval.benchsuite import by_name
from repro.faultlab import CampaignSpec, iter_campaign, run_campaign
from repro.server import (
    ProtocolError,
    ServerClient,
    ServerError,
    parse_submission,
    serve_in_thread,
)
from repro.synthesis import synthesize_lattice_dual
from repro.varsim import (
    VariationCampaignSpec,
    iter_variation_campaign,
    run_variation_campaign,
)

FAULTSIM_PAYLOAD = {
    "kind": "faultsim", "n_values": [6], "k_values": [3, 6],
    "densities": [0.05], "trials": 30, "batch_size": 15,
}
VARSWEEP_PAYLOAD = {
    "kind": "varsweep", "bench": "xnor2", "sigmas": [0.3],
    "crossbar_rows": 8, "crossbar_cols": 8, "trials": 20,
    "batch_size": 10,
}


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(processes=1, job_workers=2)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    return ServerClient(port=server.port, timeout=120.0)


class TestCampaignIterators:
    """The streaming refactor: iterators match the aggregate runners."""

    def test_iter_campaign_matches_run_campaign(self):
        spec = CampaignSpec(n_values=(6,), k_values=(3,),
                            densities=(0.05, 0.1), trials=20,
                            batch_size=10)
        streamed = list(iter_campaign(spec))
        aggregate = run_campaign(spec)
        assert [e.k_histogram for e in streamed] == \
               [e.k_histogram for e in aggregate.estimates]
        assert [e.point for e in streamed] == \
               [e.point for e in aggregate.estimates]

    def test_iter_campaign_persists_incrementally(self, tmp_path):
        from repro.engine import JsonStore

        spec = CampaignSpec(n_values=(6,), k_values=(3,),
                            densities=(0.02, 0.1), trials=10,
                            batch_size=5)
        store = JsonStore(str(tmp_path / "campaigns.sqlite"))
        iterator = iter_campaign(spec, store=store)
        first = next(iterator)
        # The first point is durable before the second is even sampled.
        assert store.get(first.point.key()) is not None
        assert store.get(spec.points()[1].key()) is None
        rest = list(iterator)
        assert len(rest) == 1 and not rest[0].cache_hit
        # A rerun serves both points from the store.
        rerun = list(iter_campaign(spec, store=store))
        assert all(est.cache_hit for est in rerun)
        assert [e.k_histogram for e in rerun] == \
               [e.k_histogram for e in [first, *rest]]
        store.close()

    def test_iter_variation_campaign_matches_runner(self):
        lattice = synthesize_lattice_dual(by_name("xnor2").function.on)
        spec = VariationCampaignSpec(lattice=lattice, sigmas=(0.2, 0.5),
                                     crossbar_rows=8, crossbar_cols=8,
                                     trials=10, batch_size=5)
        streamed = list(iter_variation_campaign(spec))
        aggregate = run_variation_campaign(spec)
        assert [e.aware_delays for e in streamed] == \
               [e.aware_delays for e in aggregate.estimates]
        assert [e.oblivious_delays for e in streamed] == \
               [e.oblivious_delays for e in aggregate.estimates]


class TestProtocol:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown submission kind"):
            parse_submission({"kind": "mystery"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_submission([1, 2, 3])

    def test_synthesis_needs_jobs(self):
        with pytest.raises(ProtocolError):
            parse_submission({"kind": "synthesis", "jobs": []})

    def test_unknown_bench_rejected(self):
        with pytest.raises(ProtocolError, match="nope"):
            parse_submission({"kind": "synthesis",
                              "jobs": [{"bench": "nope"}]})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ProtocolError, match="alchemy"):
            parse_submission({"kind": "synthesis",
                              "jobs": [{"bench": "xnor2"}],
                              "strategies": ["alchemy"]})

    def test_bad_campaign_spec_rejected(self):
        with pytest.raises(ProtocolError, match="densities"):
            parse_submission({"kind": "faultsim", "n_values": [6],
                              "k_values": [3], "densities": [1.5]})

    @pytest.mark.parametrize("payload", [
        {**FAULTSIM_PAYLOAD, "n_values": 6},
        {**FAULTSIM_PAYLOAD, "densities": 0.05},
        {**VARSWEEP_PAYLOAD, "sigmas": 0.3},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2"}],
         "strategies": 5},
        {"kind": "grid", "config": {
            "name": "g", "family": "synthesis",
            "points": [{"bench": "xnor2"}], "fixed": {"strategies": 5}}},
        {"kind": "grid", "config": {
            "name": "g", "family": "varsweep", "grid": {"sigma": [0.3]},
            "fixed": {"bench": "xnor2", "trials": "abc"}}},
        # Python's json parses NaN and Infinity
        {**VARSWEEP_PAYLOAD, "sigmas": [float("nan")]},
        {**VARSWEEP_PAYLOAD, "sigmas": [float("inf")]},
        {**VARSWEEP_PAYLOAD, "nominal": float("nan")},
        # A misspelled key is named, not ignored (the full portfolio
        # would run), and bench excludes the truth-table keys.
        {"kind": "synthesis",
         "jobs": [{"bench": "xnor2", "stratgies": ["dual"]}]},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2"}],
         "stratgies": ["dual"]},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2", "n": 3,
                                        "bits": 0x96}]},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2", "bits": 0x96}]},
        # Mistyped job fields are rejected, never converted: 6.9 is not
        # the function 6, nor true n = 1.
        {"kind": "synthesis", "jobs": [{"label": "f", "n": 2, "bits": 6.9}]},
        {"kind": "synthesis", "jobs": [{"label": "f", "n": True, "bits": 1}]},
        {"kind": "synthesis", "jobs": [{"label": "f", "n": "2", "bits": 6}]},
        {"kind": "synthesis", "jobs": [{"label": None, "n": 2, "bits": 6}]},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2"}],
         "fault_tolerance": {"seed": 1.5}},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2"}],
         "fault_tolerance": {"seed": "3"}},
        {"kind": "synthesis", "jobs": [{"bench": "xnor2"}],
         "fault_tolerance": {"seed": True}},
        # An integer past the float range is no float.
        {**FAULTSIM_PAYLOAD, "densities": [10 ** 400]},
        # Past the dense-table limit (and 1 << n would fill memory).
        {"kind": "synthesis", "jobs": [{"label": "f", "n": 25, "bits": 1}]},
    ], ids=["n_values", "densities", "sigmas", "strategies",
            "grid-strategies", "grid-trials", "sigmas-nan", "sigmas-inf",
            "nominal-nan", "job-key-typo", "top-level-key-typo",
            "bench-with-table", "bench-with-bits", "bits-float", "n-bool",
            "n-string", "label-null", "ft-seed-float", "ft-seed-string",
            "ft-seed-bool", "densities-overflow", "n-too-large"])
    def test_malformed_fields_rejected(self, payload):
        with pytest.raises(ProtocolError):
            parse_submission(payload)

    def test_unknown_campaign_field_rejected(self):
        with pytest.raises(ProtocolError, match="trails"):
            parse_submission({**FAULTSIM_PAYLOAD, "trails": 50})

    def test_coalesce_keys_are_content_addressed(self):
        spelled = parse_submission({"kind": "synthesis",
                                    "jobs": [{"bench": "xnor2"}]})
        function = by_name("xnor2").function
        explicit = parse_submission({
            "kind": "synthesis",
            "jobs": [{"label": "xnor2", "n": function.n,
                      "bits": function.on.bits}],
        })
        assert spelled.coalesce_key == explicit.coalesce_key
        other = parse_submission({"kind": "synthesis",
                                  "jobs": [{"bench": "xor3"}]})
        assert other.coalesce_key != spelled.coalesce_key

    def test_campaign_keys_differ_by_grid(self):
        base = parse_submission(FAULTSIM_PAYLOAD)
        denser = parse_submission({**FAULTSIM_PAYLOAD,
                                   "densities": [0.05, 0.1]})
        assert base.coalesce_key != denser.coalesce_key
        assert denser.points_total == 2


class TestHttpEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "active" in health

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"queue", "engine", "synthesis_cache_entries",
                "campaign_store_entries"} <= set(stats)

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_bad_json_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("POST", "/api/submit", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "bad JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_bad_submission_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit({"kind": "synthesis",
                           "jobs": [{"bench": "missing-bench"}]})
        assert excinfo.value.status == 400

    def test_bad_fault_tolerance_400(self, client):
        for field, value in [("mapping_trials", -1),
                             ("mapping_trials", 1_000_000_000),
                             ("fabric_rows", 100_000), ("fabric_cols", 257)]:
            with pytest.raises(ServerError) as excinfo:
                client.submit({"kind": "synthesis", "jobs": [{
                    "bench": "xnor2",
                    "fault_tolerance": {"defect_density": 0.1,
                                        field: value}}]})
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)

    def test_repeated_campaign_value_400(self, client):
        for payload, field in [
                ({**FAULTSIM_PAYLOAD, "n_values": [6, 6, 6]}, "n_values"),
                ({**FAULTSIM_PAYLOAD, "models": ["bernoulli", "bernoulli"]},
                 "models"),
                ({**VARSWEEP_PAYLOAD, "sigmas": [0.3, 0.3]}, "sigmas")]:
            with pytest.raises(ServerError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 400
            assert f"{field!r} repeats" in str(excinfo.value)

    def test_unknown_route_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/api/nope")
        assert excinfo.value.status == 404

    def test_submit_is_post_only(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/api/submit")
        assert excinfo.value.status == 405

    def test_oversized_body_413(self, client):
        import socket

        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /api/submit HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Length: 99999999999\r\n\r\n")
            chunks = []
            while chunk := sock.recv(4096):
                chunks.append(chunk)
            answer = b"".join(chunks).decode()
        assert answer.startswith("HTTP/1.1 413 ")
        assert "exceeds" in answer

    def test_nowait_result_409_while_running(self, client):
        submitted = client.submit(FAULTSIM_PAYLOAD)
        # wait=0 may race completion; accept either a 409 or the result.
        try:
            snapshot = client.result(submitted["job_id"], wait=False)
            assert snapshot["state"] == "done"
        except ServerError as error:
            assert error.status == 409
        final = client.result(submitted["job_id"])
        assert final["state"] == "done"


class TestServedEqualsDirect:
    """The acceptance criterion: served answers are bit-identical."""

    def test_synthesis_bit_identical(self, client):
        benches = ["xnor2", "xor3", "maj3"]
        served = client.run({"kind": "synthesis",
                             "jobs": [{"bench": name}
                                      for name in benches]})
        with BatchEngine() as engine:
            direct = engine.run([
                SynthesisJob.from_function(by_name(name).function, name)
                for name in benches
            ])
        assert [p["lattice"] for p in served["points"]] == \
               [lattice_to_text(r.lattice) for r in direct]
        assert [p["strategy"] for p in served["points"]] == \
               [r.strategy for r in direct]
        assert [p["area"] for p in served["points"]] == \
               [r.area for r in direct]

    def test_fault_tolerance_report_is_served(self, client):
        """A served fault-tolerance job returns the engine's report; a job
        without one gets no ``fault_tolerance`` key."""
        spec = {"defect_density": 0.1, "redundancy": "tmr", "seed": 3}
        served = client.run({"kind": "synthesis", "jobs": [
            {"bench": "xnor2", "fault_tolerance": spec},
            {"bench": "xnor2"}]})
        with BatchEngine() as engine:
            (direct,) = engine.run([SynthesisJob.from_function(
                by_name("xnor2").function, "xnor2",
                fault_tolerance=FaultToleranceSpec(**spec))])
        with_report, plain = served["points"]
        assert with_report["fault_tolerance"] == \
            asdict(direct.fault_tolerance)
        assert with_report["fault_tolerance"]["mapped"] is True
        assert with_report["fault_tolerance"]["tmr_area"] > direct.area
        assert "fault_tolerance" not in plain

    def test_faultsim_bit_identical(self, client):
        served = client.run(FAULTSIM_PAYLOAD)
        spec = CampaignSpec(n_values=(6,), k_values=(3, 6),
                            densities=(0.05,), trials=30, batch_size=15)
        direct = run_campaign(spec)
        assert [p["k_histogram"] for p in served["points"]] == \
               [list(e.k_histogram) for e in direct.estimates]

    def test_varsweep_bit_identical(self, client):
        served = client.run(VARSWEEP_PAYLOAD)
        lattice = synthesize_lattice_dual(by_name("xnor2").function.on)
        spec = VariationCampaignSpec(lattice=lattice, sigmas=(0.3,),
                                     crossbar_rows=8, crossbar_cols=8,
                                     trials=20, batch_size=10)
        direct = run_variation_campaign(spec)
        assert served["points"][0]["aware_delays"] == \
            list(direct.estimates[0].aware_delays)
        assert served["points"][0]["oblivious_delays"] == \
            list(direct.estimates[0].oblivious_delays)

    def test_stream_replays_full_sequence(self, client):
        payload = {**FAULTSIM_PAYLOAD, "densities": [0.02, 0.08],
                   "seed": 3}
        submitted = client.submit(payload)
        lines = list(client.stream(submitted["job_id"]))
        assert lines[-1]["state"] == "done"
        points = [line["point"] for line in lines[:-1]]
        assert len(points) == 2
        result = client.result(submitted["job_id"])
        assert points == result["points"]


class TestCoalescing:
    def test_identical_concurrent_submissions_share_one_computation(
            self, client):
        payload = {**FAULTSIM_PAYLOAD, "trials": 60, "seed": 11}
        before = client.stats()["queue"]
        barrier = threading.Barrier(6)

        def one_client() -> dict:
            # Fresh client per thread: six genuinely concurrent sockets.
            mine = ServerClient(port=client.port, timeout=120.0)
            barrier.wait()
            submitted = mine.submit(payload)
            result = mine.result(submitted["job_id"])
            result["coalesced"] = submitted["coalesced"]
            return result

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [future.result()
                       for future in [pool.submit(one_client)
                                      for _ in range(6)]]

        after = client.stats()["queue"]
        assert after["computations"] - before["computations"] == 1
        assert after["coalesced"] - before["coalesced"] == 5
        histograms = {json.dumps(r["points"]) for r in results}
        assert len(histograms) == 1  # every client saw the same answer
        assert all(r["state"] == "done" for r in results)
        assert sum(1 for r in results if r["coalesced"]) == 5

    def test_distinct_concurrent_clients_all_complete(self, client):
        seeds = list(range(4))
        barrier = threading.Barrier(len(seeds))

        def one_client(seed: int) -> dict:
            mine = ServerClient(port=client.port, timeout=120.0)
            barrier.wait()
            return mine.run({**FAULTSIM_PAYLOAD, "trials": 40,
                             "seed": 100 + seed})

        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            results = list(pool.map(one_client, seeds))

        assert all(r["state"] == "done" for r in results)
        # Distinct seeds are distinct computations — no false sharing.
        assert len({json.dumps(r["points"]) for r in results}) == len(seeds)

    def test_late_duplicate_reuses_finished_job(self, client):
        payload = {**FAULTSIM_PAYLOAD, "trials": 20, "seed": 21}
        first = client.run(payload)
        again = client.submit(payload)
        assert again["coalesced"]
        assert again["job_id"] == first["job_id"]
        assert client.result(again["job_id"])["points"] == first["points"]


class _StubBridge:
    """Scripted worker bridge for queue-level tests (no real compute)."""

    def __init__(self):
        self.executor = ThreadPoolExecutor(max_workers=1)
        self.fail_next = False
        self.runs = 0

    def run_submission(self, submission, emit, trace_id=None):
        self.runs += 1
        emit("running", None)
        if self.fail_next:
            self.fail_next = False
            emit("failed", "scripted failure")
        else:
            emit("point", {"value": self.runs})
            emit("done", None)


class TestQueueLifecycle:
    def test_failed_job_does_not_poison_coalescing(self):
        import asyncio

        from repro.server.queue import JobQueue

        bridge = _StubBridge()
        bridge.fail_next = True

        async def scenario():
            queue = JobQueue(bridge, asyncio.get_running_loop())
            submission = parse_submission(FAULTSIM_PAYLOAD)
            failed_job, coalesced = queue.submit(submission)
            assert not coalesced
            await asyncio.gather(*queue.tasks(), return_exceptions=True)
            assert failed_job.state == "failed"
            # The failure evicted the coalesce key: an identical
            # submission recomputes instead of replaying the failure.
            retry_job, coalesced = queue.submit(submission)
            assert not coalesced
            assert retry_job.job_id != failed_job.job_id
            await asyncio.gather(*queue.tasks(), return_exceptions=True)
            assert retry_job.state == "done"
            # The failed record stays queryable by id meanwhile.
            assert queue.get(failed_job.job_id) is failed_job
            return queue.stats

        stats = asyncio.run(scenario())
        assert stats["computations"] == 2
        assert stats["failed"] == 1 and stats["completed"] == 1

    def test_finished_jobs_evicted_beyond_retention(self, monkeypatch):
        import asyncio

        import repro.server.queue as queue_module

        monkeypatch.setattr(queue_module, "MAX_RETAINED_JOBS", 2)
        bridge = _StubBridge()

        async def scenario():
            queue = queue_module.JobQueue(
                bridge, asyncio.get_running_loop())
            for seed in range(5):
                queue.submit(parse_submission(
                    {**FAULTSIM_PAYLOAD, "seed": seed}))
                await asyncio.gather(*queue.tasks(), return_exceptions=True)
            return queue

        queue = asyncio.run(scenario())
        assert len(queue._jobs) <= 2
        assert len(queue._by_key) <= 2


class TestShutdown:
    def test_clean_shutdown_drains_and_stops(self):
        handle = serve_in_thread(processes=1, job_workers=1)
        client = ServerClient(port=handle.port, timeout=60.0)
        client.wait_healthy()
        submitted = client.submit({**FAULTSIM_PAYLOAD, "seed": 31})
        assert client.result(submitted["job_id"])["state"] == "done"
        client.shutdown()
        client.wait_stopped()
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()
