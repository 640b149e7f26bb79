"""The asyncio HTTP/JSON front-end: ``nanoxbar serve``.

A stdlib-only batch server over ``asyncio.start_server`` — one
connection per request, JSON bodies, chunked transfer encoding for the
incremental per-point stream.  Endpoints:

==========================  ==========================================
``GET  /healthz``           liveness probe (also reports queue depth)
``GET  /api/stats``         queue + engine statistics, metrics snapshot
                            and recent trace spans
``GET  /api/metrics``       Prometheus text exposition of every counter,
                            gauge and latency histogram
``GET  /api/metrics/history``  recorder frames since a cursor
                            (``?since=&limit=&resolution=fine|coarse``)
``GET  /api/metrics/stream``   Server-Sent Events: one event per
                            recorder frame (``?since=`` resumes)
``GET  /dashboard``         self-contained live HTML dashboard
``GET  /api/profile``       sampling profiler over a window
                            (``?seconds=&interval_ms=&format=json``)
``POST /api/submit``        submit a job; returns ``job_id`` (+ whether
                            it coalesced onto an in-flight twin)
``GET  /api/status/<id>``   lifecycle snapshot, points done/total
``GET  /api/result/<id>``   full result; blocks until the job completes
                            (``?wait=0`` returns 409 while running)
``GET  /api/stream/<id>``   chunked stream: one JSON line per point as
                            each completes, then a terminal status line
``POST /api/shutdown``      graceful stop (drain jobs, close stores)
==========================  ==========================================

The table above is ``_ROUTES``, the one list of endpoints: dispatch and
the ``endpoint`` label of ``server_http_request_seconds`` both read it.
A known path with another method answers 404 (405 for ``/api/submit``).

The server is deliberately minimal — request coalescing, the worker
bridge and the wire format live in their own modules — but it is a real
HTTP/1.1 peer: ``curl`` works against every endpoint above.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from urllib.parse import parse_qs, urlsplit

from ..obs import metrics, tracing
from ..obs.sampler import sample_for
from .dashboard import DASHBOARD_HTML
from .protocol import ProtocolError, dumps, parse_submission
from .queue import JobQueue, ServedJob
from .worker import WorkerBridge

#: Largest accepted request body (a synthesis batch is a few KB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long one request's head+body may take to arrive.  Responses are
#: unbounded (a result wait can be long); this only stops an idle or
#: trickling connection from pinning a handler — and the shutdown drain —
#: forever.
REQUEST_READ_TIMEOUT = 60.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Prometheus text exposition format version served on ``/api/metrics``.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Per-handler request info for the HTTP latency histogram.  A
#: contextvar because handlers are concurrent asyncio tasks: each task
#: sees only its own request.
_REQUEST: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "nanoxbar_http_request", default=None)


def _observe_http(status: int) -> None:
    """Record one request's latency; first terminal response wins."""
    info = _REQUEST.get()
    if info is None:
        return
    _REQUEST.set(None)
    metrics.registry().histogram(
        "server_http_request_seconds",
        "HTTP request latency by endpoint and status",
        labels={"endpoint": info["endpoint"], "status": str(status)},
    ).observe(time.perf_counter() - info["start"])


def _head(status: int, extra: str = "",
          content_type: str = "application/json") -> bytes:
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Connection: close\r\n{extra}\r\n").encode()


async def _chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """One chunk of a chunked body; ``b""`` is the terminating chunk."""
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
    await writer.drain()


class _BodyTooLarge(Exception):
    """Request declared a body beyond ``MAX_BODY_BYTES`` (HTTP 413)."""


class _BadRequest(Exception):
    """A malformed request head (HTTP 400)."""


class BatchServer:
    """One serving process: listener + queue + worker bridge.

    Args:
        host/port: bind address (``port=0`` picks an ephemeral port,
            published on ``self.port`` once started).
        cache_path: SQLite file of the one store holding the synthesis
            cache, campaign and grid rows (``":memory:"`` for ephemeral).
        processes: pool width each job shards over.
        job_workers: how many jobs may compute concurrently.
        obs_tick: metrics-recorder tick interval in seconds (``None``
            defers to ``NANOXBAR_OBS_TICK`` / the 1s default).
        health_rules: watchdog rules for the bridge's health monitor
            (defaults to :func:`~repro.obs.health.default_server_rules`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8351,
                 cache_path: str = ":memory:", processes: int = 1,
                 job_workers: int = 2, obs_tick: float | None = None,
                 health_rules=None):
        self.host = host
        self.port = port
        self.cache_path = cache_path
        self.processes = processes
        self.job_workers = job_workers
        self.obs_tick = obs_tick
        self.health_rules = health_rules
        self.bridge: WorkerBridge | None = None
        self.queue: JobQueue | None = None
        self.ready = threading.Event()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.bridge = WorkerBridge(cache_path=self.cache_path,
                                   processes=self.processes,
                                   job_workers=self.job_workers,
                                   obs_tick=self.obs_tick,
                                   health_rules=self.health_rules)
        self.queue = JobQueue(self.bridge, self._loop)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_BODY_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()

    async def serve_forever(self) -> None:
        """Serve until a shutdown request (or :meth:`request_stop`)."""
        assert self._stop is not None
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        # Before 3.12 wait_closed() does not wait for connection
        # handlers, and a handler mid-submit can add dispatch tasks
        # behind any single snapshot — so drain handlers *and* queue
        # tasks together until quiescent, then retire the compute bridge.
        current = asyncio.current_task()
        while True:
            pending = [task for task in (*self._handlers,
                                         *self.queue.tasks())
                       if task is not current]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        await self._loop.run_in_executor(None, self.bridge.close)

    async def run(self) -> None:
        await self.start()
        await self.serve_forever()

    def request_stop(self) -> None:
        """Thread-safe graceful-stop trigger."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    # -- request plumbing -------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, path, query, body = request
                route = _route_of(path)
                _REQUEST.set({"endpoint": (route or "other").rstrip("/"),
                              "start": time.perf_counter()})
                await self._route(writer, method, route, path, query, body)
        except asyncio.TimeoutError:
            pass  # trickling body: drop the connection like a broken peer
        except _BadRequest as error:
            await self._respond(writer, 400, {"error": str(error.args[0])})
        except _BodyTooLarge as error:
            await self._respond(writer, 413, {
                "error": f"request body of {error.args[0]} bytes exceeds "
                         f"the {MAX_BODY_BYTES}-byte limit"})
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except Exception as error:  # last-resort 500
            try:
                await self._respond(writer, 500,
                                    {"error": f"internal error: {error}"})
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          REQUEST_READ_TIMEOUT)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise _BadRequest(
                f"unparseable Content-Length {declared!r}") from None
        if length < 0:
            raise _BadRequest(f"negative Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        body = b""
        if length:
            body = await asyncio.wait_for(reader.readexactly(length),
                                          REQUEST_READ_TIMEOUT)
        parts = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(parts.query).items()}
        return method.upper(), parts.path, query, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict | str,
                       content_type: str = "application/json") -> None:
        """One whole response: a JSON object, or text of ``content_type``."""
        body = (payload.encode("utf-8") if isinstance(payload, str)
                else dumps(payload) + b"\n")
        writer.write(_head(status, f"Content-Length: {len(body)}\r\n",
                           content_type=content_type))
        writer.write(body)
        _observe_http(status)
        await writer.drain()

    # -- routing ----------------------------------------------------------
    async def _route(self, writer, method: str, route: str | None,
                     path: str, query: dict, body: bytes) -> None:
        """Answer from :data:`_ROUTES`; a job route's handler gets the job."""
        handler = _ROUTES.get((method, route))
        if handler is None:
            if route == "/api/submit":
                await self._respond(writer, 405,
                                    {"error": "submit is POST-only"})
            else:
                await self._respond(writer, 404, {
                    "error": f"no route for {method} {path}"})
        elif not route.endswith("/"):
            await handler(self, writer, query, body)
        else:
            job_id = path.rsplit("/", 1)[-1]
            job = self.queue.get(job_id)
            if job is None:
                await self._respond(writer, 404,
                                    {"error": f"unknown job {job_id!r}"})
            else:
                await handler(self, writer, job, query)

    async def _healthz(self, writer, _query: dict, _body: bytes) -> None:
        # Degraded still answers 200 — liveness and health are different
        # questions; the body carries the watchdog verdict.
        await self._respond(writer, 200, {
            **self.bridge.health.status(),
            **self.queue.snapshot(),
        })

    async def _stats(self, writer, _query: dict, _body: bytes) -> None:
        # The queue snapshot is loop-side state; the bridge half touches
        # SQLite (store/cache occupancy counts), so it runs in an executor
        # instead of blocking the event loop.
        queue_snapshot = self.queue.snapshot()
        extra = await self._loop.run_in_executor(None, self._stats_payload)
        await self._respond(writer, 200, {"queue": queue_snapshot, **extra})

    async def _metrics(self, writer, _query: dict, _body: bytes) -> None:
        await self._respond(writer, 200,
                            metrics.registry().render_prometheus(),
                            METRICS_CONTENT_TYPE)

    async def _dashboard(self, writer, _query: dict, _body: bytes) -> None:
        await self._respond(writer, 200, DASHBOARD_HTML,
                            "text/html; charset=utf-8")

    async def _shutdown(self, writer, _query: dict, _body: bytes) -> None:
        await self._respond(writer, 200, {"status": "stopping"})
        self._stop.set()

    async def _submit(self, writer, _query: dict, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await self._respond(writer, 400,
                                {"error": f"bad JSON body: {error}"})
            return
        try:
            submission = parse_submission(payload)
        except ProtocolError as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        job, coalesced = self.queue.submit(submission)
        await self._respond(writer, 202, {
            "job_id": job.job_id,
            "coalesced": coalesced,
            "state": job.state,
            "points_total": submission.points_total,
            "trace_id": job.trace_id,
        })

    def _stats_payload(self) -> dict:
        """The blocking half of ``/api/stats`` (runs off the loop)."""
        return {
            **self.bridge.stats(),
            "metrics": metrics.registry().snapshot(),
            "recent_spans": tracing.recent_spans(limit=50),
        }

    async def _status(self, writer, job: ServedJob, _query: dict) -> None:
        await self._respond(writer, 200, job.status())

    async def _result(self, writer, job: ServedJob, query: dict) -> None:
        if query.get("wait", "1") != "0":
            await job.wait()
        if not job.complete:
            await self._respond(writer, 409, {
                "error": f"job {job.job_id} is still {job.state}",
                **job.status(),
            })
            return
        await self._respond(writer, 200, job.result())

    async def _stream(self, writer, job: ServedJob, _query: dict) -> None:
        writer.write(_head(200, "Transfer-Encoding: chunked\r\n"))
        await writer.drain()
        async for record in job.stream():
            await _chunk(writer, dumps({"point": record}) + b"\n")
        await _chunk(writer, dumps({
            "state": job.state, "error": job.error,
            "points_total": job.submission.points_total}) + b"\n")
        _observe_http(200)
        await _chunk(writer, b"")

    # -- live observability ------------------------------------------------
    @staticmethod
    def _query_number(query: dict, key: str, default: float,
                      lo: float, hi: float) -> float:
        try:
            value = float(query.get(key, default))
        except (TypeError, ValueError):
            raise _BadRequest(
                f"unparseable {key}={query.get(key)!r}") from None
        return min(hi, max(lo, value))

    async def _history(self, writer, query: dict, _body: bytes) -> None:
        """``GET /api/metrics/history``: recorder frames past a cursor."""
        recorder = self.bridge.recorder
        since = int(self._query_number(query, "since", 0, 0, 1 << 62))
        limit = None
        if "limit" in query:
            limit = int(self._query_number(query, "limit", 0, 1, 100_000))
        resolution = query.get("resolution", "fine")
        if resolution not in ("fine", "coarse"):
            await self._respond(writer, 400, {
                "error": f"resolution must be fine|coarse, "
                         f"not {resolution!r}"})
            return
        frames = recorder.history(since=since, limit=limit,
                                  resolution=resolution)
        await self._respond(writer, 200, {
            "frames": frames,
            "cursor": recorder.cursor,
            "interval": recorder.interval,
            "resolution": resolution,
        })

    async def _metrics_stream(self, writer, query: dict,
                              _body: bytes) -> None:
        """``GET /api/metrics/stream``: frames as Server-Sent Events.

        Rides the same chunked-transfer machinery as the per-job stream;
        each recorder frame becomes one ``id:``/``data:`` event, so
        ``EventSource`` reconnects can resume losslessly from
        ``?since=<last id>``.  The poll loop watches ``self._stop`` so a
        graceful shutdown is not held open by attached dashboards.
        """
        recorder = self.bridge.recorder
        cursor = int(self._query_number(query, "since", 0, 0, 1 << 62))
        writer.write(_head(200, "Transfer-Encoding: chunked\r\n"
                                "Cache-Control: no-store\r\n",
                           content_type="text/event-stream"))
        _observe_http(200)
        await writer.drain()

        readers = metrics.registry().gauge(
            "server_sse_readers", "attached /api/metrics/stream clients")
        readers.inc()

        poll = min(max(recorder.interval, 0.05), 0.25)
        idle = 0.0
        try:
            await _chunk(writer, b"retry: 2000\n\n")
            while not self._stop.is_set():
                frames = recorder.history(since=cursor)
                for frame in frames:
                    cursor = frame["cursor"]
                    await _chunk(writer, (f"id: {frame['cursor']}\n"
                                          f"data: {json.dumps(frame)}\n\n"
                                          ).encode("utf-8"))
                if frames:
                    idle = 0.0
                else:
                    idle += poll
                    if idle >= 15.0:  # keep proxies from reaping us
                        idle = 0.0
                        await _chunk(writer, b": keepalive\n\n")
                await asyncio.sleep(poll)
            await _chunk(writer, b"")
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # reader went away; nothing left to stream to
        finally:
            readers.dec()

    async def _profile(self, writer, query: dict, _body: bytes) -> None:
        """``GET /api/profile``: sample the process for a window."""
        seconds = self._query_number(query, "seconds", 5.0, 0.05, 60.0)
        interval = self._query_number(query, "interval_ms", 5.0,
                                      1.0, 1000.0) / 1000.0
        fmt = query.get("format", "collapsed")
        if fmt not in ("collapsed", "json"):
            await self._respond(writer, 400, {
                "error": f"format must be collapsed|json, not {fmt!r}"})
            return
        report = await self._loop.run_in_executor(
            None, lambda: sample_for(seconds, interval=interval))
        if fmt == "json":
            await self._respond(writer, 200, report.as_dict())
        else:
            await self._respond(writer, 200, report.collapsed(),
                                "text/plain; charset=utf-8")


#: The one list of endpoints: ``(method, path)`` to handler.  A path
#: ending in ``/`` is a job prefix, whose handler gets the job the rest of
#: the path names.  The paths, job prefixes without their slash, are also
#: the ``endpoint`` label values of ``server_http_request_seconds``; any
#: other path is labelled ``other``.
_ROUTES = {
    ("GET", "/healthz"): BatchServer._healthz,
    ("GET", "/api/stats"): BatchServer._stats,
    ("GET", "/api/metrics"): BatchServer._metrics,
    ("GET", "/api/metrics/history"): BatchServer._history,
    ("GET", "/api/metrics/stream"): BatchServer._metrics_stream,
    ("GET", "/dashboard"): BatchServer._dashboard,
    ("GET", "/api/profile"): BatchServer._profile,
    ("POST", "/api/submit"): BatchServer._submit,
    ("GET", "/api/status/"): BatchServer._status,
    ("GET", "/api/result/"): BatchServer._result,
    ("GET", "/api/stream/"): BatchServer._stream,
    ("POST", "/api/shutdown"): BatchServer._shutdown,
}


def _route_of(path: str) -> str | None:
    """The route ``path`` names: a route path or a job prefix it extends."""
    for _method, route in _ROUTES:
        if path == route or (route.endswith("/") and path.startswith(route)):
            return route
    return None


class ServerHandle:
    """A server running on a background daemon thread (tests, benches)."""

    def __init__(self, server: BatchServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - drain hang guard
            raise RuntimeError("server thread failed to stop in time")


def serve_in_thread(**kwargs) -> ServerHandle:
    """Start a :class:`BatchServer` on a daemon thread; wait until ready.

    The in-process twin of ``nanoxbar serve`` — tests and benchmarks get
    a real HTTP listener (ephemeral port by default) without managing a
    subprocess.
    """
    kwargs.setdefault("port", 0)
    server = BatchServer(**kwargs)
    thread = threading.Thread(target=lambda: asyncio.run(server.run()),
                              name="nanoxbar-serve", daemon=True)
    thread.start()
    if not server.ready.wait(timeout=30.0):  # pragma: no cover - startup
        raise RuntimeError("server failed to start in time")
    return ServerHandle(server, thread)
