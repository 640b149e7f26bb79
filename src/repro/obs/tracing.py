"""Lightweight spans: monotonic timings, trace propagation, span ring.

A *span* is one timed unit of work (``with span("engine.run_batch")``).
Spans nest through a :mod:`contextvars` variable, so the ambient trace
and parent-span IDs follow the flow of control — across ``await`` points
(each asyncio task owns its context) and, where a thread hop breaks the
chain, explicitly:

* the server's worker bridge re-installs the job's trace ID
  (:func:`set_current_trace`) on its executor thread, which then runs
  the job's engine batch or campaign itself;
* the process-pool shards carry the trace ID as a plain field on their
  task payloads and report back measured durations, which the parent
  records as *synthetic* spans (:func:`record_span`).

Completed spans land in a bounded in-memory ring buffer
(:func:`recent_spans` — the ``/api/stats`` "recent spans" view), are
forwarded to registered listeners (the ``--profile`` span-tree
collector), and optionally appended as JSON lines to a trace sink
(``NANOXBAR_TRACE=/path/to/trace.jsonl`` or :func:`set_trace_sink`).

Durations come from ``time.perf_counter`` (monotonic); the ``start``
field is wall-clock for human correlation only.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

from . import _state

#: Completed spans retained in memory.
SPAN_RING_SIZE = 2048

#: (trace_id, span_id | None) of the ambient trace context.
_current: contextvars.ContextVar[tuple[str, str | None] | None] = \
    contextvars.ContextVar("nanoxbar_trace", default=None)

_ring: deque[dict] = deque(maxlen=SPAN_RING_SIZE)
_ring_lock = threading.Lock()
_listeners: list[Callable[[dict], None]] = []
_sink_lock = threading.Lock()
_sink_path: str | None = os.environ.get("NANOXBAR_TRACE") or None
_sink_file = None


def new_trace_id() -> str:
    return os.urandom(8).hex()


def new_span_id() -> str:
    return os.urandom(4).hex()


def current_trace_id() -> str | None:
    """The ambient trace ID, or ``None`` outside any trace."""
    context = _current.get()
    return context[0] if context else None


def set_current_trace(trace_id: str) -> contextvars.Token:
    """Install ``trace_id`` as the ambient trace (returns a reset token).

    The cross-thread half of propagation: a worker thread handed a trace
    ID as plain data re-enters the trace with this before opening spans.
    """
    return _current.set((trace_id, None))


def reset_current_trace(token: contextvars.Token) -> None:
    _current.reset(token)


class SpanHandle:
    """What ``with span(...)`` yields: IDs plus late field attachment."""

    __slots__ = ("trace_id", "span_id", "fields")

    def __init__(self, trace_id: str | None, span_id: str | None,
                 fields: dict | None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.fields = fields

    def set(self, key: str, value) -> None:
        if self.fields is not None:
            self.fields[key] = value


_NULL_HANDLE = SpanHandle(None, None, None)


@contextmanager
def span(name: str, **fields) -> Iterator[SpanHandle]:
    """Time a block; record a completed span on exit.

    Nested spans inherit the ambient trace ID and parent to the
    enclosing span; a span opened outside any trace starts a fresh
    trace.  Exceptions propagate (the span records ``error``).
    """
    if not _state.enabled():
        yield _NULL_HANDLE
        return
    parent = _current.get()
    trace_id = parent[0] if parent else new_trace_id()
    span_id = new_span_id()
    token = _current.set((trace_id, span_id))
    handle = SpanHandle(trace_id, span_id, dict(fields))
    start_wall = time.time()
    start = time.perf_counter()
    error: str | None = None
    try:
        yield handle
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _current.reset(token)
        duration = time.perf_counter() - start
        if error is not None:
            handle.fields["error"] = error
        _finish({
            "name": name,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent[1] if parent else None,
            "start": start_wall,
            "duration": duration,
            "fields": handle.fields,
        })


def record_span(name: str, duration: float, trace_id: str | None = None,
                **fields) -> None:
    """Record an externally-timed span (pool shards, queue waits) that
    ended now.

    ``trace_id`` defaults to the ambient context, and the parent is the
    ambient span when it belongs to the same trace — the normal case for
    durations measured elsewhere (a worker process, a queue timestamp)
    but attributed here.
    """
    if not _state.enabled():
        return
    context = _current.get()
    if trace_id is None:
        trace_id = context[0] if context else new_trace_id()
    parent_id = None
    if context is not None and context[0] == trace_id:
        parent_id = context[1]
    _finish({
        "name": name,
        "trace_id": trace_id,
        "span_id": new_span_id(),
        "parent_id": parent_id,
        "start": time.time() - duration,
        "duration": duration,
        "fields": fields,
    })


def _finish(record: dict) -> None:
    with _ring_lock:
        _ring.append(record)
        listeners = list(_listeners)
    for listener in listeners:
        listener(record)
    _sink_write(record)


# -- the ring ----------------------------------------------------------
def recent_spans(limit: int | None = None,
                 trace_id: str | None = None) -> list[dict]:
    """Completed spans, oldest first (optionally filtered / truncated)."""
    with _ring_lock:
        spans = list(_ring)
    if trace_id is not None:
        spans = [s for s in spans if s["trace_id"] == trace_id]
    if limit is not None and limit >= 0:
        spans = spans[-limit:]
    return spans


def clear_spans() -> None:
    """Empty the ring buffer (tests only)."""
    with _ring_lock:
        _ring.clear()


# -- listeners (the --profile collector) -------------------------------
def add_span_listener(listener: Callable[[dict], None]) -> None:
    with _ring_lock:
        _listeners.append(listener)


def remove_span_listener(listener: Callable[[dict], None]) -> None:
    with _ring_lock:
        try:
            _listeners.remove(listener)
        except ValueError:
            pass


# -- the JSONL sink ----------------------------------------------------
def set_trace_sink(path: str | None) -> None:
    """Append completed spans as JSON lines to ``path`` (``None`` stops)."""
    global _sink_path, _sink_file
    with _sink_lock:
        if _sink_file is not None:
            try:
                _sink_file.close()
            except OSError:
                pass
        _sink_path = path
        _sink_file = None


def _sink_write(record: dict) -> None:
    global _sink_path, _sink_file
    if _sink_path is None:
        return
    with _sink_lock:
        if _sink_path is None:
            return
        try:
            if _sink_file is None:
                _sink_file = open(_sink_path, "a", encoding="utf-8")
            _sink_file.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
            _sink_file.flush()
        except OSError as error:
            # A broken sink must never take down the instrumented code:
            # drop the sink and keep serving — but leave a signal, or
            # operators cannot tell tracing died mid-flight.
            path, _sink_path, _sink_file = _sink_path, None, None
            _signal_sink_failure(path, error)


def _signal_sink_failure(path: str | None, error: OSError) -> None:
    """One counter bump + one structured log line when the sink dies.

    Imports are local: :mod:`repro.obs.logging` imports this module, so a
    top-level import would be circular — and this path only runs once per
    sink lifetime.
    """
    from . import metrics
    from .logging import get_logger, log_event

    metrics.registry().counter(
        "nanoxbar_trace_sink_errors_total",
        "trace JSONL sinks disabled after a write error").inc()
    log_event(get_logger("obs"), "trace sink disabled",
              path=path, error=f"{type(error).__name__}: {error}")
