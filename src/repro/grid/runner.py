"""The grid runner: plan rows, claim and fill them, report progress.

The lifecycle (see ``docs/grid.md`` for the state diagram):

1. :func:`plan` expands the config into per-point parameter dicts,
   derives every point's content-addressed key, probes the ``json_store``
   table for answers the campaign runners already persisted, and
   materialises one ``grid_rows`` row per point (store hits land directly
   in ``done`` with ``worker='store'``).
2. :func:`work_loop` is one worker's claim loop: claim the next pending
   row under a lease, compute it (a pure function of the row's params —
   see :mod:`repro.grid.families`; synthesis points go through the
   engine's NPN cache rows in the same store), publish the result through
   ``grid_complete`` *and* mirror it into ``json_store`` under the same
   key, so later ``run_campaign`` calls see grid results as cache hits.
3. :func:`run_workers` fans ``work_loop`` out across worker processes
   (``python -m repro.grid.worker`` subprocesses sharing one store file).
4. :func:`grid_status` / :func:`export_rows` read progress back out;
   :func:`release_claims` is the ``resume`` front-end.

Waiting discipline: a worker that finds nothing claimable while other
workers still hold live leases sleeps between *claim* calls (plain
polling).  The claim call itself never sleeps in Python — lock contention
is absorbed by SQLite's busy handler inside ``BEGIN IMMEDIATE``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Iterator

from ..engine.store import GridRow, JsonStore
from ..obs import get_logger, log_event, metrics, tracing
from . import families
from .config import GridConfig, grid_id_for

_LOG = get_logger("grid")


def _point_seconds(family: str) -> metrics.Histogram:
    return metrics.registry().histogram(
        "nanoxbar_grid_point_seconds",
        "wall-clock per computed grid point (store hits excluded)",
        labels={"family": family})


#: Delay between claim attempts while other workers hold live leases.
DEFAULT_POLL_SECONDS = 0.2


def plan(config: GridConfig, store: JsonStore
         ) -> tuple[str, list[str], int]:
    """Materialise the config's rows; returns (grid_id, keys, added).

    Idempotent: re-planning an existing grid adds only rows that are new
    and upgrades pending rows whose answers the ``json_store`` table has
    since learned (e.g. from a ``run_campaign`` sharing the store file).
    """
    points = config.keyed_points()
    keys = list(points)
    grid_id = grid_id_for(config, keys)
    entries: list[tuple[str, dict, Any | None]] = []
    for key, params in points.items():
        payload = store.get(key)
        if payload is not None and not families.validate_payload(
                config.family, params, payload):
            payload = None
        entries.append((key, params, payload))
    added = store.grid_add_points(grid_id, entries)
    log_event(_LOG, "grid planned", grid_id=grid_id,
              points=len(entries), added=added,
              cached=sum(1 for _, _, payload in entries
                         if payload is not None))
    return grid_id, keys, added


def run_point(config: GridConfig, store: JsonStore, row: GridRow,
              worker: str) -> str:
    """Compute one claimed row and publish its result.

    Returns the row's terminal status from this worker's perspective:
    ``"done"``, ``"stale"`` (the lease expired mid-compute and another
    worker reclaimed the row — this worker's answer is discarded), or the
    :meth:`~repro.engine.store.JsonStore.grid_fail` verdict (``"pending"``
    / ``"failed"``) when the compute raised.
    """
    with tracing.span("grid.point", grid_id=row.grid_id, key=row.point_key,
                      family=config.family):
        start = time.perf_counter()
        try:
            payload = families.compute(config.family, row.params,
                                       config.processes, store)
        except Exception as error:
            verdict = store.grid_fail(
                row.grid_id, row.point_key, worker,
                f"{type(error).__name__}: {error}",
                max_attempts=config.max_attempts)
            log_event(_LOG, "grid point failed", grid_id=row.grid_id,
                      key=row.point_key, worker=worker,
                      verdict=verdict or "stale", error=str(error))
            return verdict or "stale"
        _point_seconds(config.family).observe(time.perf_counter() - start)
    if not store.grid_complete(row.grid_id, row.point_key, worker, payload):
        # Lease lost mid-compute; the reclaimer recomputes the identical
        # content-seeded answer, so this one is dropped unpublished.
        log_event(_LOG, "grid point stale", grid_id=row.grid_id,
                  key=row.point_key, worker=worker)
        return "stale"
    # Mirror into the content-addressed results map: run_campaign and
    # future plans of overlapping grids see this point as a cache hit.
    store.put(row.point_key, payload)
    return "done"


#: The terminal statuses :func:`run_point` reports.
_STATUSES = ("done", "stale", "pending", "failed")


def _claim_loop(config: GridConfig, grid_id: str, store: JsonStore,
                worker: str, poll_seconds: float
                ) -> Iterator[tuple[GridRow, str]]:
    """One worker's claim loop: each claimed row with its :func:`run_point`
    status, then one "grid worker drained" event with the status tally.

    The loop ends when the grid holds no ``pending`` rows and no live
    leases remain to expire — i.e. every row is terminal.  While other
    workers hold leases it polls (sleeps ``poll_seconds`` between claim
    calls) so crashed peers' rows are picked up as their leases lapse.
    """
    tally = dict.fromkeys(_STATUSES, 0)
    while True:
        row = store.grid_claim(grid_id, worker, config.lease_seconds,
                               max_attempts=config.max_attempts)
        if row is None:
            counts = store.grid_counts(grid_id)
            if not counts.get("pending") and not counts.get("claimed"):
                break
            time.sleep(poll_seconds)
            continue
        status = run_point(config, store, row, worker)
        tally[status] += 1
        yield row, status
    log_event(_LOG, "grid worker drained", grid_id=grid_id, worker=worker,
              **tally)


def work_loop(config: GridConfig, grid_id: str, store: JsonStore,
              worker: str, poll_seconds: float = DEFAULT_POLL_SECONDS
              ) -> dict[str, int]:
    """Drain the grid as one worker; returns its status tally."""
    tally = dict.fromkeys(_STATUSES, 0)
    for _, status in _claim_loop(config, grid_id, store, worker,
                                 poll_seconds):
        tally[status] += 1
    return tally


def iter_grid_points(config: GridConfig, store: JsonStore,
                     worker: str = "server"
                     ) -> Iterator[tuple[GridRow, str]]:
    """Plan + drain a grid in-process, yielding terminal rows as they land.

    The streaming face for the batch server: every yielded pair is a
    terminal :class:`~repro.engine.store.GridRow` (freshly re-read, so
    ``result`` is populated) plus this worker's verdict for it.  Rows
    already ``done``/``failed`` at plan time are yielded first with
    verdict ``"cached"``.
    """
    grid_id, keys, _ = plan(config, store)
    seen: set[str] = set()
    for row in store.grid_rows_for(grid_id):
        if row.status in ("done", "failed") and row.point_key in keys:
            seen.add(row.point_key)
            yield row, "cached"
    for row, status in _claim_loop(config, grid_id, store, worker,
                                   DEFAULT_POLL_SECONDS):
        current = store.grid_get(grid_id, row.point_key)
        if current is not None and row.point_key not in seen \
                and current.status in ("done", "failed"):
            seen.add(row.point_key)
            yield current, status
    # Rows another worker finished while we drained.
    for row in store.grid_rows_for(grid_id):
        if row.status in ("done", "failed") and row.point_key not in seen:
            seen.add(row.point_key)
            yield row, "cached"


def run_workers(config: GridConfig, config_path: str, grid_id: str,
                store_path: str, workers: int | None = None,
                poll_seconds: float = DEFAULT_POLL_SECONDS) -> int:
    """Fan the claim loop out across worker subprocesses; wait for all.

    Each worker is a ``python -m repro.grid.worker`` process opening its
    own connection onto the shared store file.  Returns the number of
    workers that exited non-zero.  (Process creation here is ``exec``
    -based on purpose: the multiprocessing machinery is reserved to
    :mod:`repro.engine.pool`.)
    """
    count = config.workers if workers is None else workers
    procs = []
    for index in range(count):
        procs.append(subprocess.Popen([
            sys.executable, "-m", "repro.grid.worker",
            "--config", config_path,
            "--store", store_path,
            "--grid-id", grid_id,
            "--worker-id", f"w{index}",
            "--poll", str(poll_seconds),
        ]))
    failures = 0
    for proc in procs:
        failures += proc.wait() != 0
    return failures


def grid_status(store: JsonStore, grid_id: str) -> dict[str, Any]:
    """Machine-readable progress summary for one grid."""
    counts = store.grid_counts(grid_id)
    total = sum(counts.values())
    return {
        "grid_id": grid_id,
        "points": total,
        "counts": counts,
        "finished": bool(total) and counts.get("done", 0)
        + counts.get("failed", 0) == total,
    }


def export_rows(store: JsonStore, grid_id: str) -> list[dict[str, Any]]:
    """Every row of the grid as plain JSON-ready dicts (insertion order)."""
    return [{
        "point_key": row.point_key,
        "params": row.params,
        "status": row.status,
        "worker": row.worker,
        "attempts": row.attempts,
        "claimed_at": row.claimed_at,
        "finished_at": row.finished_at,
        "result": row.result,
        "error": row.error,
    } for row in store.grid_rows_for(grid_id)]


def release_claims(store: JsonStore, grid_id: str) -> int:
    """Return every claimed row to pending (the ``resume`` front-end).

    Only call with the previous run's workers dead — see
    :meth:`~repro.engine.store.JsonStore.grid_release_claims`.
    """
    released = store.grid_release_claims(grid_id)
    log_event(_LOG, "grid claims released", grid_id=grid_id,
              released=released)
    return released
