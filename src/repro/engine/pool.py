"""Sharded multiprocessing map with deterministic chunking.

The engine's unit of parallel work is one *unique* canonical function (the
cache layer dedupes before the pool sees anything), so tasks are few and
coarse.  :func:`map_sharded` preserves input order, computes its chunk size
deterministically from the task count, and degrades to serial execution
whenever a pool cannot be created (restricted sandboxes, missing semaphore
support) or ``processes <= 1`` — callers observe identical results either
way, just different wall-clock.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from functools import partial
from typing import Callable, Iterator, Sequence, TypeVar

from ..obs import metrics, tracing

T = TypeVar("T")
R = TypeVar("R")

#: Per-shard-task execution time, as measured *inside* the worker.
_SHARD_SECONDS = metrics.registry().histogram(
    "pool_shard_seconds", "per-task execution time inside pool workers")
_SHARD_TASKS = metrics.registry().counter(
    "pool_tasks_total", "tasks executed through the sharded pool")


def default_processes() -> int:
    """A sensible worker count: the CPU count, capped to keep forks cheap."""
    return max(1, min(os.cpu_count() or 1, 8))


def chunk_size(num_tasks: int, processes: int) -> int:
    """Deterministic chunking: about two chunks per worker, at least 1."""
    if num_tasks <= 0 or processes <= 1:
        return 1
    return max(1, -(-num_tasks // (2 * processes)))


def batch_sizes(total: int, batch_size: int) -> list[int]:
    """Deterministic batch layout: full batches, then the remainder.

    The Monte-Carlo campaign runners (:mod:`repro.faultlab`,
    :mod:`repro.varsim`) spawn one ``SeedSequence`` child per entry, so
    this layout is part of each campaign's sampling identity.
    """
    if total < 0 or batch_size < 1:
        raise ValueError("need total >= 0 and batch_size >= 1")
    sizes = [batch_size] * (total // batch_size)
    if total % batch_size:
        sizes.append(total % batch_size)
    return sizes


#: Modules the forkserver warms up once, so every later worker fork starts
#: with numpy and the campaign kernels already imported.
_FORKSERVER_PRELOAD = [
    "repro.engine.engine",
    "repro.faultlab.campaign",
    "repro.varsim.campaign",
]


def _pool_context():
    """Pick a start method that is safe for the calling process.

    ``fork`` is the fast default for single-threaded callers (the CLI
    runners).  Forking a *multi-threaded* process — the asyncio batch
    server's worker threads, first of all — is a deadlock lottery: the
    child inherits whatever mutexes other threads held at fork time.
    Those callers get ``forkserver`` (workers fork from a clean,
    single-threaded helper that was itself started via fork+exec), or
    ``spawn`` where no forkserver exists.  Results are bit-identical
    under every method: workers are pure functions of their pickled
    task tuples.
    """
    methods = multiprocessing.get_all_start_methods()
    if threading.active_count() > 1:
        if "forkserver" in methods:
            ctx = multiprocessing.get_context("forkserver")
            # No-op once the forkserver is running; cheap before that.
            ctx.set_forkserver_preload(_FORKSERVER_PRELOAD)
            return ctx
        return multiprocessing.get_context("spawn")
    if "fork" in methods:
        # Under NANOXBAR_LOCKCHECK the sanitizer audits this boundary:
        # a watched lock held by any *other* thread right now would be
        # copied locked into every forked worker.  (active_count() said
        # we are single-threaded, but non-threading threads and races
        # are exactly what the sanitizer exists to catch.)
        from ..analysis import lockwatch
        lockwatch.check_fork_safety("engine.pool fork start method")
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _timed_task(fn: Callable[[T], R], trace_id: str | None,
                item: T) -> tuple[str | None, float, R]:
    """Worker body wrapper: measure one task where it actually runs.

    The trace ID crosses the process boundary as a plain field on the
    payload and comes back with the worker-measured duration, so the
    parent can record a pool-shard span inside the right trace without
    any shared telemetry state between processes.
    """
    start = time.perf_counter()
    result = fn(item)
    return trace_id, time.perf_counter() - start, result


def _collect(entry: tuple[str | None, float, R]) -> R:
    """Unwrap one timed task result, recording its shard span/metrics."""
    trace_id, elapsed, result = entry
    tracing.record_span("pool.shard", elapsed, trace_id=trace_id)
    _SHARD_SECONDS.observe(elapsed)
    _SHARD_TASKS.inc()
    return result


def _sharded(fn: Callable[[T], R], items: Sequence[T], processes: int,
             chunksize: Callable[[int, int], int],
             mode: Callable[[str], None]) -> Iterator[R]:
    """One order-preserving pass of ``fn`` over ``items``.

    ``min(processes, len(items))`` pool workers pull tasks ahead of the
    consumer in chunks of ``chunksize(tasks, workers)``.  One worker or
    none, or a pool the platform refuses (restricted sandboxes, missing
    semaphores), runs serially with identical results.  Exceptions
    raised inside workers propagate as they would serially.  ``mode``
    hears which path ran.
    """
    items = list(items)
    call = partial(_timed_task, fn, tracing.current_trace_id())
    workers = min(processes, len(items))
    if workers > 1:
        ctx = _pool_context()
        try:
            pool = ctx.Pool(workers)
        except (OSError, PermissionError, RuntimeError, ImportError):
            mode("serial-fallback")
        else:
            mode(f"pooled-{workers}")
            # ``with pool`` terminates workers even when the consumer
            # abandons the pass midway (generator .close() runs the exit).
            with pool:
                for entry in pool.imap(call, items,
                                       chunksize=chunksize(len(items),
                                                           workers)):
                    yield _collect(entry)
            return
    else:
        mode("serial")
    for item in items:
        yield _collect(call(item))


def map_sharded(fn: Callable[[T], R], items: Sequence[T],
                processes: int = 1) -> list[R]:
    """Order-preserving parallel map with graceful serial fallback."""
    with tracing.span("pool.map", tasks=len(items)) as handle:
        return list(_sharded(fn, items, processes, chunk_size,
                             partial(handle.set, "mode")))


def iter_sharded(fn: Callable[[T], R], items: Sequence[T],
                 processes: int = 1) -> Iterator[R]:
    """Order-preserving parallel map, yielded lazily as results land.

    The streaming sibling of :func:`map_sharded` for the campaign
    iterators: one pool serves the whole task list, workers pull tasks
    ahead of the consumer (``imap``, one task at a time), and results come
    back in input order — so the consumer can aggregate and yield grid
    point ``i`` while the pool is already sampling point ``i+1``.
    """
    return _sharded(fn, items, processes, lambda tasks, workers: 1,
                    lambda mode: None)
