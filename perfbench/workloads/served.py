"""``served``: a closed loop against ``nanoxbar serve``.

The server runs as a subprocess with default flags on a fresh cache file
and an ephemeral port.  Two client threads (the host's ``nproc``) each
send one request through ``ServerClient.run`` and wait for its answer
before sending the next.  The seeded mix:

* ~35% one-point faultsim requests and ~25% one-sigma varsweep requests,
  each with a fresh campaign seed, so each is computed and persisted;
* ~40% synthesis requests for a seeded input permutation and negation of
  one of :data:`FUNCTIONS`.  Set-up races each function once, so these are
  answered from the engine's NPN cache.  Every request carries its own
  label, because an identical resubmission is replayed from the queue's
  retained jobs and never reaches the engine.  Output negation is left
  out: it can move a variant into the cache's other polarity slot.

Server-side layer numbers are deltas of the server's ``/api/metrics``
across the measured window; nothing is traced inside the server.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPException

from .. import promtext, stats
from ..calibrate import Clock
from ..catalog import HOOKS
from ..tracer import Installed, Recorder, install
from . import Outcome, Workload

#: Suite functions of the synthesis mix (cheap races, n <= 5).
FUNCTIONS = ("xnor2", "xor3", "xor4", "xor5", "maj3", "maj5", "thr4_2",
             "sym5_23", "onehot4", "fa_sum", "fa_carry", "mux2", "gt2",
             "dred_or5", "pla5")
#: Benches of the varsweep mix (their lattices fit the 8 x 8 crossbar).
VARSWEEP_BENCHES = ("xnor2", "maj3", "mux2", "fa_carry")
CLIENTS = 2
#: Completed requests per pass (one ``wall_s`` sample).
BLOCK = 200
#: Requests per run at least, so ten samples lie beyond the p99.
MIN_REQUESTS = 1000
#: Requests re-computed directly and compared bit for bit.
DIRECT_CHECKS = 12
_ERRORS = (OSError, HTTPException, RuntimeError, ValueError)


class Server:
    """One ``nanoxbar serve`` subprocess in its own temp directory."""

    def __init__(self, root: str, workdir: str):
        from repro.server.client import ServerClient

        self.dir = tempfile.mkdtemp(prefix="server-", dir=workdir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(self.dir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval.cli", "serve", "--port", "0",
             "--cache", os.path.join(self.dir, "cache.sqlite")],
            cwd=self.dir, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+) ", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.client = ServerClient(port=int(match.group(1)), timeout=60.0)
            self.client.wait_healthy()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's own peak resident memory.

        Read from ``/proc`` rather than the server's ``getrusage`` gauge:
        after fork and exec, Linux's ``ru_maxrss`` also counts the parent's
        memory at fork time.
        """
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def stop(self) -> None:
        """Shut the server down, and make sure its process has ended."""
        try:
            if self.proc.poll() is None and hasattr(self, "client"):
                self.client.shutdown()
                self.proc.communicate(timeout=30)
        except (*_ERRORS, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.communicate()
            self._log.close()


class Served(Workload):
    name = "served"

    def __init__(self, root: str):
        self.root = root
        self.server: Server | None = None

    def setup(self, seed: int, workdir: str) -> None:
        from repro.boolean.npn import NpnTransform, apply_transform
        from repro.eval.benchsuite import by_name

        self._transform, self._npn = apply_transform, NpnTransform
        self.seed = seed
        self.tables = {name: by_name(name).function.on for name in FUNCTIONS}
        self.close()
        self.server = Server(self.root, workdir)
        self.server.client.run({"kind": "synthesis", "jobs": [
            {"bench": name} for name in FUNCTIONS]})

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def request(self, index: int) -> tuple[str, dict, object]:
        """Request ``index`` of the seeded mix: (kind, payload, variant)."""
        rng = random.Random(self.seed * 1_000_003 + index)
        fresh = self.seed * 1_000_000 + index
        draw = rng.random()
        if draw < 0.35:
            n = rng.choice((8, 12, 16))
            return "faultsim", {
                "kind": "faultsim", "n_values": [n], "k_values": [n // 2, n],
                "densities": [rng.choice((0.02, 0.05, 0.1))], "trials": 200,
                "seed": fresh}, None
        if draw < 0.60:
            return "varsweep", {
                "kind": "varsweep", "bench": rng.choice(VARSWEEP_BENCHES),
                "sigmas": [rng.choice((0.1, 0.3, 0.6))], "crossbar_rows": 8,
                "crossbar_cols": 8, "trials": 100, "seed": fresh}, None
        table = self.tables[rng.choice(FUNCTIONS)]
        perm = list(range(table.n))
        rng.shuffle(perm)
        variant = self._transform(table, self._npn(
            tuple(perm), rng.getrandbits(table.n), False))
        return "synthesis", {
            "kind": "synthesis",
            "jobs": [{"label": f"q{index}", "n": variant.n,
                      "bits": variant.bits}]}, variant

    def measure(self, seconds: float, trace: bool,
                recorder: Recorder) -> Outcome:
        assert self.server is not None
        client = self.server.client
        if trace:
            # Import every traced module now, not inside the first traced block.
            install(HOOKS, recorder).restore()
        before = promtext.parse(client.metrics())
        loop = _Loop(self, seconds, trace, recorder)
        threads = [threading.Thread(target=loop.client, daemon=True)
                   for _ in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join()
            while loop.installed:
                loop.installed.pop().restore()
        if loop.error is not None:
            raise loop.error
        after = promtext.parse(client.metrics())
        outcome = Outcome(walls={0: loop.walls}, raw_walls={0: loop.raw_walls},
                          traced_walls={0: loop.traced_walls} if trace else {})
        return self._outcome(outcome, loop.done, before, after, trace,
                             recorder)

    def _outcome(self, outcome: Outcome, done: list, before: dict,
                 after: dict, trace: bool, recorder: Recorder) -> Outcome:
        outcome.attempted = len(done)
        outcome.failed = sum(1 for entry in done if entry[4] is None)
        ok = [entry for entry in done if entry[4] is not None]
        latencies = [entry[3] * 1e3 for entry in ok]
        hits = [entry[3] * 1e3 for entry in ok if entry[2] == "synthesis"]
        misses = [entry[3] * 1e3 for entry in ok if entry[2] != "synthesis"]
        outcome.figures.update({
            "req_per_s": (BLOCK / stats.median(outcome.raw_walls[0]), "req/s"),
            "latency_p50_ms": (stats.median(latencies), "ms"),
            "latency_p99_ms": (stats.tail_percentile(latencies, 99), "ms"),
            "hit_p50_ms": (stats.median(hits), "ms"),
            "miss_p50_ms": (stats.median(misses), "ms"),
        })
        change = promtext.delta(before, after)
        outcome.peak_rss_mb = self.server.peak_rss_mb()
        blocks = len(done) / BLOCK
        outcome.layers = server_layers(change, blocks)
        if trace:
            for span, metric in (("client.submit", "client.submit_ms"),
                                 ("client.result", "client.result_ms")):
                durations = recorder.durations(span)
                outcome.layers[metric] = (stats.median(durations) * 1e3
                                          if durations else 0.0)
        self._check(ok, outcome)
        return outcome

    def _check(self, ok: list, outcome: Outcome) -> None:
        from repro.engine import lattice_from_text

        answers = {}
        for _, index, kind, _, answer in ok:
            answers[index] = answer
            if kind != "synthesis":
                continue
            _, _, variant = self.request(index)
            record = answer["points"][0]
            lattice = lattice_from_text(variant.n, record["lattice"])
            if lattice.to_truth_table_scalar() != variant:
                outcome.wrong.append(f"request {index}: lattice does not "
                                     "implement the submitted function")
        sample = random.Random(self.seed).sample(
            sorted(answers), min(DIRECT_CHECKS, len(answers)))
        with DirectAnswers(self.tables) as direct:
            for index in sample:
                kind, payload, _ = self.request(index)
                if answers[index]["points"] != direct.answer(kind, payload):
                    outcome.wrong.append(f"request {index} ({kind}): served "
                                         "answer differs from the direct "
                                         "computation")


class _Loop:
    """The closed loop's shared state.

    Requests are issued in blocks of :data:`BLOCK`.  At a block boundary the
    clients wait until nothing is in flight; the block's wall time is then
    closed, the calibration loop runs, and tracing is switched for the next
    block (odd blocks are traced), so blocks never overlap.
    """

    def __init__(self, workload: Served, seconds: float, trace: bool,
                 recorder: Recorder):
        self.workload, self.seconds = workload, seconds
        self.trace, self.recorder = trace, recorder
        self.cond = threading.Condition()
        self.issued = self.in_flight = 0
        self.paused = self.stopping = False
        self.done: list[tuple[float, int, str, float, dict | None]] = []
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.installed: list[Installed] = []
        self.error: BaseException | None = None
        self.clock = Clock()
        self.start = self.block_start = time.perf_counter()

    def _close_block(self, index: int) -> None:
        """At request ``index``, a multiple of BLOCK, with the lock held."""
        self.paused = True
        try:
            while self.in_flight:
                self.cond.wait()
            raw, reference = self.clock.raw, self.clock.reference
            self.clock.add(time.perf_counter() - self.block_start)
            block = index // BLOCK - 1
            if self.trace and block % 2:
                self.traced_walls.append(self.clock.reference - reference)
            else:
                self.walls.append(self.clock.reference - reference)
                self.raw_walls.append(self.clock.raw - raw)
            if index >= MIN_REQUESTS and (
                    time.perf_counter() - self.start >= self.seconds):
                self.stopping = True
            elif self.trace:
                while self.installed:
                    self.installed.pop().restore()
                if (block + 1) % 2:
                    self.installed.append(install(HOOKS, self.recorder))
        except BaseException:
            self.stopping = True
            raise
        finally:
            self.paused = False
            self.block_start = time.perf_counter()
            self.cond.notify_all()

    def client(self) -> None:
        try:
            self._requests()
        except BaseException as error:
            with self.cond:
                self.error, self.stopping = error, True
                self.cond.notify_all()

    def _requests(self) -> None:
        client = self.workload.server.client
        while True:
            with self.cond:
                while self.paused:
                    self.cond.wait()
                index = self.issued
                if index and index % BLOCK == 0 and not self.stopping:
                    self._close_block(index)
                if self.stopping:
                    return
                self.issued += 1
                self.in_flight += 1
            kind, payload, _ = self.workload.request(index)
            began = time.perf_counter()
            try:
                answer = client.run(payload)
            except _ERRORS as error:
                print(f"served: request {index} failed: {error!r}",
                      file=sys.stderr)
                answer = None
            ended = time.perf_counter()
            with self.cond:
                self.done.append((ended, index, kind, ended - began, answer))
                self.in_flight -= 1
                self.cond.notify_all()


def server_layers(change: dict, blocks: float) -> dict[str, float]:
    """Per-pass server-side layer metrics from an ``/api/metrics`` delta."""
    total = promtext.total
    per_pass = {
        "server.http_s.submit": total(change, "server_http_request_seconds_sum",
                                      endpoint="/api/submit"),
        "server.http_s.result": total(change, "server_http_request_seconds_sum",
                                      endpoint="/api/result"),
        "server.queue_wait_s": total(change, "server_queue_wait_seconds_sum"),
        "server.job_s": total(change, "server_job_seconds_sum"),
        "server.cpu_s": total(change, "process_cpu_seconds_total"),
        "server.coalesced": total(change, "server_coalesced_total"),
        "engine.batch_s": total(change, "engine_batch_seconds_sum"),
        "engine.cache_hits": total(change, "engine_cache_hits_total"),
        "engine.races": total(change, "engine_races_total"),
        "faultlab.point_s": total(change, "campaign_point_seconds_sum",
                                  family="faultsim"),
        "varsim.point_s": total(change, "campaign_point_seconds_sum",
                                family="varsweep"),
        "engine.shard_s": total(change, "pool_shard_seconds_sum"),
        "engine.store_writes": total(change, "store_writes_total"),
    }
    return {name: value / blocks for name, value in per_pass.items()}


class DirectAnswers:
    """The served answers, computed in this process without the server."""

    def __init__(self, tables: dict):
        from repro.engine import BatchEngine, SynthesisJob

        self._job = SynthesisJob
        self.engine = BatchEngine(cache_path=":memory:", processes=1)
        self.engine.run([SynthesisJob.from_function(table, name)
                         for name, table in tables.items()])

    def __enter__(self) -> DirectAnswers:
        return self

    def __exit__(self, *exc: object) -> None:
        self.engine.close()

    def answer(self, kind: str, payload: dict) -> list[dict]:
        from repro.server import protocol

        if kind == "synthesis":
            job = payload["jobs"][0]
            result, = self.engine.run([self._job(
                label=job["label"], n=job["n"], bits=job["bits"])])
            return [protocol.job_result_record(result)]
        spec = protocol.parse_submission(payload).spec
        if kind == "faultsim":
            from repro.faultlab.campaign import compute_point

            return [protocol.fault_estimate_record(compute_point(point))
                    for point in spec.points()]
        from repro.varsim.campaign import compute_point as variation_point

        return [protocol.variation_estimate_record(variation_point(spec, point))
                for point in spec.points()]

