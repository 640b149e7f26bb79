"""The one SQLite store: persisted JSON rows + claimable experiment-grid rows.

Every batched workload persists through :class:`JsonStore`, with
free-form keys and JSON payloads: the synthesis engine's NPN cache rows
(the ``npn/`` namespace of :mod:`repro.engine.cache`), the Monte-Carlo
campaign estimates of :mod:`repro.faultlab` and :mod:`repro.varsim`, and
the grid families' point payloads.  Its conventions:

* SQLite-backed, ``":memory:"`` for an ephemeral per-process store;
* writes batched into single transactions (``put_many``);
* unparseable rows read as misses, so corruption costs recompute time,
  never correctness.

This module is the only one that opens SQLite connections (lint rule
``NX201``), so a single ``results.sqlite`` holds the synthesis cache
*and* every campaign estimate behind one connection per store object.

The same file also carries the **experiment-grid rows** that
:mod:`repro.grid` materialises: each grid point is one row in a
``grid_rows`` table moving through the claim protocol ::

    pending -> claimed(worker, lease_deadline)
            -> done(result, timestamps) | failed(error, attempts)

Many workers — threads, processes, or hosts sharing the file — pull rows
through :meth:`JsonStore.grid_claim`; a crashed worker's lease expires and
its row returns to the pool (bounded by ``max_attempts``).  Claims take a
single ``BEGIN IMMEDIATE`` transaction: contention is waited out inside
SQLite's busy handler (a blocking OS-level wait), never by a Python
sleep/retry spin.

Concurrency contract (the async server's handlers and pool shards persist
points against one shared store):

* every write is **atomic** — SQLite's transaction machinery stages each
  commit in a side journal and publishes it with an atomic rename-style
  page swap (the database-level equivalent of write-temp + ``os.replace``),
  so readers never observe a half-written payload and a crash mid-write
  leaves the previous committed state intact;
* the store is **thread-safe**: one connection guarded by an RLock
  (``check_same_thread=False``), so asyncio executor threads can share it;
* it is **tolerant of concurrent writers** across processes: file-backed
  stores run in WAL journal mode (readers never block writers), a busy
  timeout waits out lock contention, and transiently locked commits are
  retried with backoff instead of surfacing to the campaign runner.
  Busy events surface on the ``nanoxbar_store_busy_total{op,outcome}``
  counter (``op`` = ``write`` | ``claim``, ``outcome`` = ``retried`` |
  ``exhausted``).
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..obs import get_logger, log_event, metrics

_LOG = get_logger("store")

#: How long one connection waits on a cross-process lock before raising.
_BUSY_TIMEOUT = 10.0

#: Bounded retry schedule (seconds) for transiently locked commits.
_RETRY_DELAYS = (0.05, 0.1, 0.2, 0.4)

_WRITES = metrics.registry().counter(
    "store_writes_total", "committed JsonStore write transactions")
_ROWS = metrics.registry().counter(
    "store_rows_written_total", "rows persisted through JsonStore writes")

_BUSY_HELP = ("transient SQLite locked/busy events by operation and "
              "outcome (retried = will re-run, exhausted = surfaced)")


def _busy_counter(op: str, outcome: str):
    return metrics.registry().counter(
        "nanoxbar_store_busy_total", _BUSY_HELP,
        labels={"op": op, "outcome": outcome})


_GRID_HELP = "experiment-grid rows by claim-protocol transition"


def _grid_counter(status: str):
    return metrics.registry().counter(
        "nanoxbar_grid_points_total", _GRID_HELP, labels={"status": status})


#: Grid-row states.  ``pending`` and ``claimed`` are transient; ``done``
#: and ``failed`` are terminal.
GRID_STATUSES = ("pending", "claimed", "done", "failed")


def _is_transient(error: sqlite3.OperationalError) -> bool:
    text = str(error).lower()
    return "locked" in text or "busy" in text


def _json_or(text: str | None, default: Any) -> Any:
    """A stored JSON column, or ``default`` when it does not parse.

    Unparseable rows read as misses by design: corruption costs a
    recompute (the caller overwrites the row), never a wrong answer.
    """
    try:
        return json.loads(text)
    except (TypeError, json.JSONDecodeError):
        return default


@dataclass(frozen=True)
class GridRow:
    """One experiment-grid point row (see :meth:`JsonStore.grid_claim`)."""

    grid_id: str
    point_key: str
    params: dict
    status: str
    worker: str | None
    attempts: int
    lease_deadline: float | None
    claimed_at: float | None
    finished_at: float | None
    result: Any | None
    error: str | None


class JsonStore:
    """SQLite-backed ``key -> JSON payload`` map plus claimable grid rows.

    One store object wraps one SQLite connection (WAL mode for file
    paths, plain journal for ``":memory:"``) and two tables:

    * ``json_store`` — the content-addressed results map the campaign
      runners persist per-point payloads into (:meth:`get` /
      :meth:`put` / :meth:`put_many`);
    * ``grid_rows`` — :mod:`repro.grid`'s claimable work rows, keyed by
      ``(grid_id, point_key)`` and driven through the ``grid_*`` methods.

    Multiple processes (or hosts mounting the same filesystem) may each
    open their own :class:`JsonStore` on one path; SQLite's locking makes
    every write atomic across them.  Within a process the store is
    thread-safe and may be shared freely.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS json_store (
        key     TEXT NOT NULL PRIMARY KEY,
        payload TEXT NOT NULL,
        created REAL NOT NULL
    )
    """

    _GRID_SCHEMA = """
    CREATE TABLE IF NOT EXISTS grid_rows (
        grid_id        TEXT NOT NULL,
        point_key      TEXT NOT NULL,
        params         TEXT NOT NULL,
        status         TEXT NOT NULL DEFAULT 'pending',
        worker         TEXT,
        attempts       INTEGER NOT NULL DEFAULT 0,
        lease_deadline REAL,
        claimed_at     REAL,
        finished_at    REAL,
        result         TEXT,
        error          TEXT,
        created        REAL NOT NULL,
        PRIMARY KEY (grid_id, point_key)
    )
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, timeout=_BUSY_TIMEOUT,
                                     check_same_thread=False)
        if path != ":memory:":
            # WAL lets concurrent readers proceed while a writer commits;
            # memory stores reject it (and have no concurrent processes).
            self._conn.execute("PRAGMA journal_mode=WAL")
        self._execute_with_retry(self._SCHEMA, commit=True)
        self._execute_with_retry(self._GRID_SCHEMA, commit=True)

    def _execute_with_retry(self, sql: str, rows: list[tuple] | None = None,
                            commit: bool = False) -> None:
        """Run one write, retrying bounded times on cross-writer lock noise."""
        with self._lock:
            for attempt, delay in enumerate((*_RETRY_DELAYS, None)):
                try:
                    if rows is None:
                        self._conn.execute(sql)
                    else:
                        self._conn.executemany(sql, rows)
                    if commit:
                        self._conn.commit()
                        _WRITES.inc()
                        if rows is not None:
                            _ROWS.inc(len(rows))
                    return
                except sqlite3.OperationalError as error:
                    self._conn.rollback()
                    if not _is_transient(error):
                        raise
                    if delay is None:
                        _busy_counter("write", "exhausted").inc()
                        raise
                    _busy_counter("write", "retried").inc()
                    log_event(_LOG, "transient lock, retrying write",
                              level=logging.WARNING, attempt=attempt + 1,
                              delay=delay, error=str(error))
                    time.sleep(delay)

    # -- mapping interface ------------------------------------------------
    def get(self, key: str) -> Any | None:
        """Return the JSON payload stored under ``key``, or ``None``.

        Unparseable rows read as misses by design: corruption costs a
        recompute (the caller overwrites the row), never a wrong answer.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM json_store WHERE key = ?", (key,)
            ).fetchone()
        return _json_or(row[0], None) if row is not None else None

    def put(self, key: str, payload: Any) -> None:
        """Persist one entry (a single-row :meth:`put_many`)."""
        self.put_many([(key, payload)])

    def put_many(self, entries: list[tuple[str, Any]]) -> None:
        """Persist a batch of entries in a single atomic transaction."""
        now = time.time()
        self._execute_with_retry(
            "INSERT OR REPLACE INTO json_store (key, payload, created)"
            " VALUES (?, ?, ?)",
            rows=[(key, json.dumps(payload, sort_keys=True), now)
                  for key, payload in entries],
            commit=True,
        )

    def __len__(self) -> int:
        return self.count()

    def count(self, prefix: str = "") -> int:
        """How many entries have keys starting with ``prefix``."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM json_store"
                " WHERE substr(key, 1, length(?)) = ?",
                (prefix, prefix)).fetchone()
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JsonStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- experiment-grid rows ---------------------------------------------
    # The claim protocol.  Every mutation below runs as one IMMEDIATE
    # transaction (:meth:`_transaction`): the write lock is taken up front,
    # so a concurrent claimer on another connection blocks inside SQLite's
    # busy handler (up to the busy timeout) instead of interleaving
    # half-applied state — and there is deliberately NO Python-level
    # sleep/retry loop on this path (claims must not spin-wait on a locked
    # store).

    @contextmanager
    def _transaction(self, op: str) -> Iterator[sqlite3.Connection]:
        """The store lock and one ``BEGIN IMMEDIATE`` transaction.

        Commits when the block exits, early returns included; any
        exception rolls the whole transaction back and propagates.  A busy
        wait that outlasts the busy timeout is counted as ``exhausted``
        under ``op``.
        """
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as error:
                if _is_transient(error):
                    _busy_counter(op, "exhausted").inc()
                raise
            try:
                yield self._conn
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def _grid_row(self, row: tuple) -> GridRow:
        (grid_id, point_key, params_text, status, worker, attempts,
         lease_deadline, claimed_at, finished_at, result_text, error) = row
        return GridRow(grid_id, point_key, _json_or(params_text, {}), status,
                       worker, int(attempts), lease_deadline, claimed_at,
                       finished_at, _json_or(result_text, None), error)

    _GRID_COLUMNS = ("grid_id, point_key, params, status, worker, attempts, "
                     "lease_deadline, claimed_at, finished_at, result, error")

    def grid_add_points(self, grid_id: str,
                        entries: list[tuple[str, dict, Any | None]],
                        now: float | None = None) -> int:
        """Materialise grid rows; idempotent.  Returns newly added count.

        ``entries`` are ``(point_key, params, result)`` triples.  A
        non-``None`` ``result`` means the point's answer is already known
        (a content-addressed hit in ``json_store``): the row lands — or,
        if it already exists as ``pending``, is upgraded — directly in
        ``done`` with ``worker='store'``.  Existing rows in any other
        state are left untouched, so re-planning a partially-run grid
        never loses work.
        """
        now = time.time() if now is None else now
        added = 0
        with self._transaction("write") as conn:
            for point_key, params, result in entries:
                done = result is not None
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO grid_rows (grid_id, "
                    "point_key, params, status, worker, attempts, "
                    "finished_at, result, created) "
                    "VALUES (?, ?, ?, ?, ?, 0, ?, ?, ?)",
                    (grid_id, point_key,
                     json.dumps(params, sort_keys=True),
                     "done" if done else "pending",
                     "store" if done else None,
                     now if done else None,
                     json.dumps(result, sort_keys=True) if done else None,
                     now))
                added += cursor.rowcount
                if done and not cursor.rowcount:
                    # The row predates this plan as pending; the store
                    # has since learned the answer.
                    conn.execute(
                        "UPDATE grid_rows SET status = 'done', "
                        "worker = 'store', result = ?, finished_at = ? "
                        "WHERE grid_id = ? AND point_key = ? "
                        "AND status = 'pending'",
                        (json.dumps(result, sort_keys=True), now,
                         grid_id, point_key))
        if added:
            _WRITES.inc()
            _ROWS.inc(added)
        return added

    def grid_claim(self, grid_id: str, worker: str, lease_seconds: float,
                   max_attempts: int = 3,
                   now: float | None = None) -> GridRow | None:
        """Atomically claim the next runnable row, or return ``None``.

        One ``BEGIN IMMEDIATE`` transaction (a) sweeps expired leases —
        a ``claimed`` row whose ``lease_deadline`` has passed returns to
        ``pending``, or moves to ``failed`` once its ``attempts`` have
        reached ``max_attempts`` — and (b) claims the oldest ``pending``
        row for ``worker``, bumping ``attempts`` and stamping a fresh
        lease.  ``None`` means nothing is claimable *right now*: the grid
        may be finished, or other workers may hold live leases (check
        :meth:`grid_counts`).

        ``now`` is injectable for tests; production callers leave it to
        the wall clock.
        """
        now = time.time() if now is None else now
        with self._transaction("claim") as conn:
            expired = conn.execute(
                "SELECT point_key, attempts, worker FROM grid_rows "
                "WHERE grid_id = ? AND status = 'claimed' "
                "AND lease_deadline < ? ORDER BY rowid",
                (grid_id, now)).fetchall()
            for point_key, attempts, holder in expired:
                if attempts >= max_attempts:
                    conn.execute(
                        "UPDATE grid_rows SET status = 'failed', "
                        "error = ?, finished_at = ? "
                        "WHERE grid_id = ? AND point_key = ?",
                        (f"lease expired after {attempts} attempts "
                         f"(last worker {holder!r})", now,
                         grid_id, point_key))
                    _grid_counter("failed").inc()
                else:
                    conn.execute(
                        "UPDATE grid_rows SET status = 'pending', "
                        "worker = NULL, lease_deadline = NULL, "
                        "claimed_at = NULL "
                        "WHERE grid_id = ? AND point_key = ?",
                        (grid_id, point_key))
                _grid_counter("lease_expired").inc()
                log_event(_LOG, "grid lease expired",
                          level=logging.WARNING, grid_id=grid_id,
                          point_key=point_key, attempts=attempts,
                          worker=holder)
            candidate = conn.execute(
                "SELECT point_key, params, attempts FROM grid_rows "
                "WHERE grid_id = ? AND status = 'pending' "
                "ORDER BY rowid LIMIT 1", (grid_id,)).fetchone()
            if candidate is None:
                return None
            point_key, params_text, attempts = candidate
            conn.execute(
                "UPDATE grid_rows SET status = 'claimed', worker = ?, "
                "attempts = ?, lease_deadline = ?, claimed_at = ? "
                "WHERE grid_id = ? AND point_key = ?",
                (worker, attempts + 1, now + lease_seconds, now,
                 grid_id, point_key))
        _grid_counter("claimed").inc()
        return self._grid_row((grid_id, point_key, params_text, "claimed",
                               worker, attempts + 1, now + lease_seconds,
                               now, None, None, None))

    def grid_extend_lease(self, grid_id: str, point_key: str, worker: str,
                          lease_seconds: float,
                          now: float | None = None) -> bool:
        """Heartbeat: push ``worker``'s lease deadline out, if still held."""
        now = time.time() if now is None else now
        with self._transaction("claim") as conn:
            cursor = conn.execute(
                "UPDATE grid_rows SET lease_deadline = ? "
                "WHERE grid_id = ? AND point_key = ? "
                "AND status = 'claimed' AND worker = ?",
                (now + lease_seconds, grid_id, point_key, worker))
        return cursor.rowcount == 1

    def grid_complete(self, grid_id: str, point_key: str, worker: str,
                      result: Any, now: float | None = None) -> bool:
        """Move ``worker``'s claimed row to ``done`` with its result.

        Returns ``False`` when the row is no longer ``worker``'s — its
        lease expired and another worker reclaimed it.  The stale
        worker's answer is discarded (the reclaiming worker recomputes
        the identical, content-seeded result), so two workers can never
        publish a point twice.
        """
        now = time.time() if now is None else now
        with self._transaction("claim") as conn:
            cursor = conn.execute(
                "UPDATE grid_rows SET status = 'done', result = ?, "
                "finished_at = ?, error = NULL "
                "WHERE grid_id = ? AND point_key = ? "
                "AND status = 'claimed' AND worker = ?",
                (json.dumps(result, sort_keys=True), now, grid_id,
                 point_key, worker))
        if cursor.rowcount == 1:
            _grid_counter("done").inc()
            return True
        return False

    def grid_fail(self, grid_id: str, point_key: str, worker: str,
                  error: str, max_attempts: int = 3,
                  now: float | None = None) -> str | None:
        """Record a failed attempt on ``worker``'s claimed row.

        The row returns to ``pending`` while attempts remain, else lands
        in terminal ``failed`` with the error message.  Returns the new
        status, or ``None`` when the row was not ``worker``'s to fail.
        """
        now = time.time() if now is None else now
        with self._transaction("claim") as conn:
            held = conn.execute(
                "SELECT attempts FROM grid_rows WHERE grid_id = ? "
                "AND point_key = ? AND status = 'claimed' "
                "AND worker = ?",
                (grid_id, point_key, worker)).fetchone()
            if held is None:
                return None
            (attempts,) = held
            if attempts >= max_attempts:
                status = "failed"
                conn.execute(
                    "UPDATE grid_rows SET status = 'failed', "
                    "error = ?, finished_at = ? "
                    "WHERE grid_id = ? AND point_key = ?",
                    (error, now, grid_id, point_key))
            else:
                status = "pending"
                conn.execute(
                    "UPDATE grid_rows SET status = 'pending', "
                    "worker = NULL, lease_deadline = NULL, "
                    "claimed_at = NULL, error = ? "
                    "WHERE grid_id = ? AND point_key = ?",
                    (error, grid_id, point_key))
        _grid_counter("failed" if status == "failed" else "retried").inc()
        return status

    def grid_release_claims(self, grid_id: str,
                            now: float | None = None) -> int:
        """Force every ``claimed`` row back to ``pending`` (resume path).

        Only safe when no worker is still attached to the grid — a live
        worker whose row is released here would race its reclaimer.
        ``nanoxbar grid resume`` calls this on the operator's assertion
        that the previous run is dead.  Attempts counters are preserved.
        """
        with self._transaction("claim") as conn:
            cursor = conn.execute(
                "UPDATE grid_rows SET status = 'pending', "
                "worker = NULL, lease_deadline = NULL, "
                "claimed_at = NULL "
                "WHERE grid_id = ? AND status = 'claimed'",
                (grid_id,))
        return cursor.rowcount

    def grid_counts(self, grid_id: str) -> dict[str, int]:
        """Row counts by status (absent statuses omitted)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM grid_rows WHERE grid_id = ? "
                "GROUP BY status", (grid_id,)).fetchall()
        return {status: int(count) for status, count in rows}

    def grid_get(self, grid_id: str, point_key: str) -> GridRow | None:
        """Fetch one row by key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {self._GRID_COLUMNS} FROM grid_rows "
                "WHERE grid_id = ? AND point_key = ?",
                (grid_id, point_key)).fetchone()
        return self._grid_row(row) if row is not None else None

    def grid_rows_for(self, grid_id: str) -> list[GridRow]:
        """Every row of a grid, insertion-ordered."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {self._GRID_COLUMNS} FROM grid_rows "
                "WHERE grid_id = ? ORDER BY rowid", (grid_id,)).fetchall()
        return [self._grid_row(row) for row in rows]
