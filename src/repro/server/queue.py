"""Async job queue with content-addressed request coalescing.

Every submission is normalised to a coalesce key by
:func:`repro.server.protocol.parse_submission` (truth-table content
hashes for synthesis, campaign point keys for the Monte-Carlo families).
The queue keeps one :class:`ServedJob` per key: concurrent identical
submissions — the classic thundering-herd shape of a synthesis service,
many clients asking for the same mapping against the same defect grid —
attach to the computation already in flight instead of launching their
own, and late duplicates reuse the finished record outright.

Per-point progress flows from the worker thread onto the event loop via
``asyncio.run_coroutine_threadsafe`` (one short coroutine per record), so
streaming readers (:meth:`ServedJob.stream`) wake in arrival order
without polling.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from ..obs import get_logger, log_event, metrics, tracing

_LOG = get_logger("server")
from .protocol import Submission
from .worker import WorkerBridge

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Completed jobs retained for late status/result/coalesce queries; the
#: oldest beyond this are evicted so a long-lived server stays bounded.
MAX_RETAINED_JOBS = 1024

_REG = metrics.registry()
_DEPTH = _REG.gauge(
    "server_queue_depth", "jobs currently queued or running")
_STREAM_READERS = _REG.gauge(
    "server_stream_readers", "chunked-stream readers currently attached")


def _queue_wait(kind: str) -> metrics.Histogram:
    return _REG.histogram(
        "server_queue_wait_seconds",
        "submit-to-running latency per job family", labels={"kind": kind})


def _job_seconds(kind: str) -> metrics.Histogram:
    return _REG.histogram(
        "server_job_seconds",
        "submit-to-terminal latency per job family", labels={"kind": kind})


def _jobs_total(kind: str, state: str) -> metrics.Counter:
    return _REG.counter(
        "server_jobs_total", "jobs finished, by family and terminal state",
        labels={"kind": kind, "state": state})


def _submissions_total(kind: str) -> metrics.Counter:
    return _REG.counter(
        "server_submissions_total", "submissions accepted per job family",
        labels={"kind": kind})


def _coalesced_total(kind: str) -> metrics.Counter:
    return _REG.counter(
        "server_coalesced_total",
        "submissions folded onto an existing job", labels={"kind": kind})


class ServedJob:
    """One computation and everything observed about it so far."""

    def __init__(self, job_id: str, submission: Submission,
                 on_failed=None):
        self.job_id = job_id
        self.submission = submission
        self.state = QUEUED
        self.points: list[dict] = []
        self.error: str | None = None
        self.created = time.time()
        self.finished: float | None = None
        self.subscribers = 1
        #: One trace per computation; coalesced submissions share it.
        self.trace_id = tracing.new_trace_id()
        self._created_mono = time.perf_counter()
        self._cond = asyncio.Condition()
        self._on_failed = on_failed

    @property
    def complete(self) -> bool:
        return self.state in (DONE, FAILED)

    def status(self) -> dict:
        """The ``/api/status`` snapshot."""
        return {
            "job_id": self.job_id,
            "kind": self.submission.kind,
            "state": self.state,
            "points_done": len(self.points),
            "points_total": self.submission.points_total,
            "subscribers": self.subscribers,
            "trace_id": self.trace_id,
            "error": self.error,
        }

    def result(self) -> dict:
        """The ``/api/result`` payload (call when ``complete``)."""
        return {
            "job_id": self.job_id,
            "kind": self.submission.kind,
            "state": self.state,
            "request": self.submission.echo,
            "points": list(self.points),
            "error": self.error,
        }

    # -- loop-side mutation (scheduled from the worker thread) -----------
    async def publish(self, event: str, data) -> None:
        kind = self.submission.kind
        async with self._cond:
            if event == "running":
                self.state = RUNNING
                wait = time.perf_counter() - self._created_mono
                _queue_wait(kind).observe(wait)
                tracing.record_span("server.queue_wait", wait,
                                    trace_id=self.trace_id,
                                    job_id=self.job_id, kind=kind)
            elif event == "point":
                self.points.append(data)
            elif event == "done":
                self.state = DONE
                self.finished = time.time()
                self._observe_terminal(kind)
            elif event == "failed":
                self.state = FAILED
                self.error = str(data)
                self.finished = time.time()
                self._observe_terminal(kind)
                if self._on_failed is not None:
                    # Same loop step as the state flip — no submit can
                    # coalesce onto a failed-but-not-yet-evicted key.
                    self._on_failed(self)
            self._cond.notify_all()

    def _observe_terminal(self, kind: str) -> None:
        seconds = time.perf_counter() - self._created_mono
        _job_seconds(kind).observe(seconds)
        _jobs_total(kind, self.state).inc()
        _DEPTH.dec()
        log_event(_LOG, "job finished", job_id=self.job_id, kind=kind,
                  state=self.state, trace_id=self.trace_id,
                  points=len(self.points), seconds=round(seconds, 6),
                  **({"error": self.error} if self.error else {}))

    async def wait(self) -> None:
        """Block until the job completes."""
        async with self._cond:
            await self._cond.wait_for(lambda: self.complete)

    async def stream(self):
        """Yield per-point records in order, then return on completion.

        Multiple readers may stream one job concurrently (each keeps its
        own cursor); records published before the reader attached are
        replayed first, so coalesced late-joiners see the full sequence.
        """
        cursor = 0
        _STREAM_READERS.inc()
        try:
            while True:
                async with self._cond:
                    await self._cond.wait_for(
                        lambda: len(self.points) > cursor or self.complete)
                    fresh = self.points[cursor:]
                    cursor = len(self.points)
                    # Events publish in emission order, so once the job is
                    # complete the points list is final — nothing trails in.
                    ended = self.complete
                for record in fresh:
                    yield record
                if ended:
                    return
        finally:
            _STREAM_READERS.dec()


class JobQueue:
    """Submission intake, coalescing, and worker dispatch."""

    def __init__(self, bridge: WorkerBridge,
                 loop: asyncio.AbstractEventLoop):
        self._bridge = bridge
        self._loop = loop
        self._ids = itertools.count(1)
        self._jobs: dict[str, ServedJob] = {}
        self._by_key: dict[str, ServedJob] = {}
        self._tasks: set[asyncio.Task] = set()
        self.stats = {
            "submitted": 0,
            "coalesced": 0,
            "computations": 0,
            "completed": 0,
            "failed": 0,
        }

    def submit(self, submission: Submission) -> tuple[ServedJob, bool]:
        """Register one submission; returns ``(job, coalesced)``.

        Identical submissions (same coalesce key) share one
        :class:`ServedJob` — and therefore one computation — whether the
        original is still queued, mid-flight, or already finished.
        """
        self.stats["submitted"] += 1
        _submissions_total(submission.kind).inc()
        existing = self._by_key.get(submission.coalesce_key)
        if existing is not None:
            self.stats["coalesced"] += 1
            _coalesced_total(submission.kind).inc()
            existing.subscribers += 1
            return existing, True
        job = ServedJob(f"job-{next(self._ids):06d}", submission,
                        on_failed=self._evict_failed)
        self._jobs[job.job_id] = job
        self._by_key[submission.coalesce_key] = job
        self.stats["computations"] += 1
        _DEPTH.inc()
        task = self._loop.create_task(self._dispatch(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job, False

    def get(self, job_id: str) -> ServedJob | None:
        return self._jobs.get(job_id)

    async def _dispatch(self, job: ServedJob) -> None:
        """Hand the job to a bridge thread and wait it out."""

        def emit(event: str, data) -> None:
            # Worker-thread side: hop every record onto the event loop.
            asyncio.run_coroutine_threadsafe(
                job.publish(event, data), self._loop)

        await self._loop.run_in_executor(
            self._bridge.executor, self._bridge.run_submission,
            job.submission, emit, job.trace_id)
        await job.wait()
        self.stats["completed" if job.state == DONE else "failed"] += 1
        self._evict_old_jobs()

    def _evict_failed(self, job: ServedJob) -> None:
        """A failure must not poison its coalesce key: evict it so the
        next identical submission recomputes (the failed record stays
        queryable by id until evicted by age)."""
        key = job.submission.coalesce_key
        if self._by_key.get(key) is job:
            del self._by_key[key]

    def tasks(self) -> list[asyncio.Task]:
        """In-flight dispatch tasks (the shutdown drain's worklist)."""
        return list(self._tasks)

    def _evict_old_jobs(self) -> None:
        """Drop the oldest finished jobs beyond the retention bound."""
        excess = len(self._jobs) - MAX_RETAINED_JOBS
        if excess <= 0:
            return
        for job_id, job in list(self._jobs.items()):
            if excess <= 0:
                break
            if not job.complete:
                continue
            del self._jobs[job_id]
            key = job.submission.coalesce_key
            if self._by_key.get(key) is job:
                del self._by_key[key]
            excess -= 1

    def snapshot(self) -> dict:
        """The queue half of the ``/api/stats`` payload."""
        active = sum(1 for job in self._jobs.values()
                     if not job.complete)
        return {**self.stats, "active": active, "known_jobs": len(self._jobs)}
