"""The worker bridge: pool-sharded jobs running off the event loop.

The asyncio front-end must never block on a synthesis race or a
Monte-Carlo campaign, and the compute substrates are synchronous by
design (``BatchEngine`` batches, the campaign iterators).  The bridge
owns a small :class:`~concurrent.futures.ThreadPoolExecutor`; each served
job runs in one of its threads, shards its real work over
:mod:`repro.engine.pool` processes as usual, and reports per-point
progress through a thread-safe ``emit`` callback the job queue provides
(:mod:`repro.server.queue` forwards the records onto the event loop).

Shared state is safe by construction: synthesis batches run on the job
thread itself through :meth:`repro.engine.engine.BatchEngine.run`, which
serialises whole batches under its lock, and the engine's cache rows,
campaign points and grid rows all persist through one thread-safe
:class:`~repro.engine.store.JsonStore`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from ..engine import BatchEngine, JsonStore
from ..engine.cache import CACHE_NAMESPACE
from ..grid import iter_grid_points
from ..grid.families import CAMPAIGNS
from ..obs import tracing
from ..obs.health import HealthMonitor, default_server_rules
from ..obs.timeline import MetricsRecorder
from .protocol import Submission, grid_row_record, job_result_record

#: ``emit`` events: ("running", None), ("point", record),
#: ("done", None), ("failed", message).
EmitFn = Callable[[str, object], None]


class WorkerBridge:
    """Runs submissions on worker threads, streaming per-point records.

    Args:
        cache_path: the SQLite file of the one ``JsonStore`` that holds
            the engine's NPN-canonical cache rows, the campaign payloads
            and the grid rows; ``":memory:"`` keeps it ephemeral.
        processes: pool width each job shards over
            (:func:`repro.engine.pool.map_sharded`).
        job_workers: how many served jobs may compute concurrently.
        obs_tick: metrics-recorder tick interval in seconds (``None``
            defers to ``NANOXBAR_OBS_TICK`` / the 1s default).
        health_rules: watchdog rules for the recorder's
            :class:`~repro.obs.health.HealthMonitor`; defaults to
            :func:`~repro.obs.health.default_server_rules`.

    The bridge also owns the process's
    :class:`~repro.obs.timeline.MetricsRecorder` — the compute side is
    where the interesting series originate, and tying the recorder's
    lifetime to the bridge means every front-end (server, tests,
    benches) gets history/SSE/watchdogs without extra wiring.
    """

    def __init__(self, cache_path: str = ":memory:", processes: int = 1,
                 job_workers: int = 2, obs_tick: float | None = None,
                 health_rules=None):
        self.store = JsonStore(cache_path)
        self.engine = BatchEngine(self.store, processes=processes)
        self.processes = processes
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, job_workers),
            thread_name_prefix="nanoxbar-job")
        if health_rules is None:
            health_rules = default_server_rules()
        self.health = HealthMonitor(health_rules)
        self.recorder = MetricsRecorder(interval=obs_tick,
                                        health=self.health)
        self.recorder.start()

    @property
    def executor(self) -> ThreadPoolExecutor:
        return self._executor

    def run_submission(self, submission: Submission, emit: EmitFn,
                       trace_id: str | None = None) -> None:
        """Worker-thread body: compute one submission, emitting progress.

        ``trace_id`` (assigned by the job queue at the server boundary)
        is installed as this thread's ambient trace before any compute
        starts, so every span below — worker, engine batch, campaign
        point, pool shard — lands in the submitting job's trace.
        """
        token = tracing.set_current_trace(trace_id) \
            if trace_id is not None else None
        try:
            emit("running", None)
            with tracing.span("worker.submission", kind=submission.kind,
                              points=submission.points_total):
                try:
                    if submission.kind == "synthesis":
                        for result in self.engine.run(submission.jobs):
                            emit("point", job_result_record(result))
                    elif submission.kind == "grid":
                        # The served grid drains in-process against the
                        # bridge's store; external `nanoxbar grid`
                        # workers on the same file join transparently
                        # through the claim protocol.
                        for row, verdict in iter_grid_points(
                                submission.grid, self.store,
                                worker="server"):
                            emit("point", grid_row_record(row, verdict))
                    else:
                        campaign = CAMPAIGNS[submission.kind]
                        for estimate in campaign.iterate(
                                submission.spec, store=self.store,
                                processes=self.processes):
                            emit("point", campaign.record(estimate))
                except Exception as error:  # anything the job raised is sent to the client
                    emit("failed", f"{type(error).__name__}: {error}")
                else:
                    emit("done", None)
        finally:
            if token is not None:
                tracing.reset_current_trace(token)

    def stats(self) -> dict:
        """Engine hit/dedup statistics plus store occupancy."""
        latest = self.recorder.latest()
        cached = self.store.count(CACHE_NAMESPACE)
        return {
            "engine": self.engine.stats.as_dict(),
            "synthesis_cache_entries": cached,
            "campaign_store_entries": len(self.store) - cached,
            "health": self.health.status(),
            "resources": latest["resources"] if latest else None,
        }

    def close(self) -> None:
        self.recorder.stop()
        self._executor.shutdown(wait=True)
        self.engine.close()
        self.store.close()
