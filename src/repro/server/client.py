"""Small stdlib HTTP client for the batch server.

Used by ``nanoxbar submit``, the server tests and ``bench_server.py`` —
one :class:`ServerClient` per server, one ``http.client`` connection per
request (the server closes connections after each exchange), chunked
decoding handled by the stdlib so :meth:`ServerClient.stream` yields
per-point records as the server computes them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import Any, Iterator


class ServerError(RuntimeError):
    """A non-2xx answer from the server (carries the HTTP status)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _error_text(data: bytes) -> str:
    """An error answer's message: its JSON ``error`` field, else the body."""
    text = data.decode("utf-8", errors="replace")
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(parsed, dict) and "error" in parsed:
        return str(parsed["error"])
    return text


class ServerClient:
    """Talks the :mod:`repro.server.protocol` vocabulary over HTTP.

    The submission/stream calls accept and return plain dicts in the
    protocol's JSON shapes — a submission is ``{"kind": "synthesis" |
    "faultsim" | "varsweep" | "grid", ...}`` and per-point records come
    back exactly as the server's record builders produce them.  Errors
    surface as :class:`ServerError` (carrying the HTTP status); network
    failures as the underlying ``OSError``/``HTTPException``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8351,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------
    @contextmanager
    def _exchange(self, method: str, path: str, payload: dict | None = None,
                  timeout: float | None = None) -> Iterator[HTTPResponse]:
        """One request on its own connection, closed when the block ends.

        Yields the response once its status is below 400; an error
        answer raises :class:`ServerError` instead.
        """
        conn = HTTPConnection(self.host, self.port,
                              timeout=timeout or self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            if response.status >= 400:
                raise ServerError(response.status,
                                  _error_text(response.read()))
            yield response
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> Any:
        """A JSON exchange: the parsed body (``None`` when empty)."""
        with self._exchange(method, path, payload) as response:
            data = response.read()
        return json.loads(data.decode("utf-8")) if data else None

    def _text(self, path: str, timeout: float | None = None) -> str:
        """A ``GET`` whose body is text (exposition, HTML, stacks)."""
        with self._exchange("GET", path, timeout=timeout) as response:
            return response.read().decode("utf-8")

    # -- endpoints --------------------------------------------------------
    def health(self) -> dict:
        """``/healthz``: liveness plus watchdog status (ok/degraded)."""
        return self._request("GET", "/healthz")

    def wait_healthy(self, deadline: float = 30.0,
                     interval: float = 0.1) -> dict:
        """Poll ``/healthz`` until the server answers (startup races)."""
        limit = time.monotonic() + deadline
        while True:
            try:
                return self.health()
            except (OSError, HTTPException, ServerError):
                if time.monotonic() >= limit:
                    raise
                time.sleep(interval)

    def stats(self) -> dict:
        """``/api/stats``: engine/cache/store/health snapshot off-loop."""
        return self._request("GET", "/api/stats")

    def metrics(self) -> str:
        """Fetch ``/api/metrics`` — raw Prometheus text exposition."""
        return self._text("/api/metrics")

    def history(self, since: int = 0, limit: int | None = None,
                resolution: str | None = None) -> dict:
        """``/api/metrics/history``: recorder frames past a cursor.

        Returns ``{"frames": [...], "cursor": int, "interval": float}``;
        resume paging by passing the returned ``cursor`` back as
        ``since``.
        """
        path = f"/api/metrics/history?since={int(since)}"
        if limit is not None:
            path += f"&limit={int(limit)}"
        if resolution is not None:
            path += f"&resolution={resolution}"
        return self._request("GET", path)

    def stream_metrics(self, since: int = 0) -> Iterator[dict]:
        """Yield recorder frames live from the SSE endpoint.

        A minimal Server-Sent-Events parser: ``data:`` lines accumulate
        until a blank line terminates the event; ``id:``/``retry:`` and
        comment lines are bookkeeping, not payload.  Runs until the
        server shuts down or the caller stops iterating.
        """
        with self._exchange("GET", f"/api/metrics/stream?since={int(since)}"
                            ) as response:
            data_lines: list[str] = []
            while True:
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if data_lines:
                        yield json.loads("\n".join(data_lines))
                        data_lines = []
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[5:].lstrip(" "))
                # id:/retry:/": comment" lines need no action here —
                # resumption state is the frame's own cursor field.

    def profile(self, seconds: float = 5.0,
                interval_ms: float = 5.0) -> str:
        """``/api/profile``: collapsed-stack text for a sampling window."""
        return self._text(f"/api/profile?seconds={seconds}"
                          f"&interval_ms={interval_ms}",
                          timeout=max(self.timeout, seconds + 30.0))

    def dashboard(self) -> str:
        """Fetch the ``/dashboard`` HTML (smoke tests, curl parity)."""
        return self._text("/dashboard")

    def submit(self, payload: dict) -> dict:
        """Submit one job; returns ``{job_id, coalesced, state, ...}``."""
        return self._request("POST", "/api/submit", payload)

    def status(self, job_id: str) -> dict:
        """``/api/status/<id>``: queue state and progress for one job."""
        return self._request("GET", f"/api/status/{job_id}")

    def result(self, job_id: str, wait: bool = True) -> dict:
        """Fetch the full result (blocks server-side until completion)."""
        suffix = "" if wait else "?wait=0"
        return self._request("GET", f"/api/result/{job_id}{suffix}")

    def run(self, payload: dict) -> dict:
        """Submit and wait: the one-call convenience wrapper."""
        submitted = self.submit(payload)
        result = self.result(submitted["job_id"])
        result["coalesced"] = submitted["coalesced"]
        if result["state"] != "done":
            raise ServerError(500, result.get("error")
                              or f"job ended {result['state']}")
        return result

    def stream(self, job_id: str) -> Iterator[dict]:
        """Yield ``{"point": ...}`` records live, then the terminal line."""
        with self._exchange("GET", f"/api/stream/{job_id}") as response:
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def shutdown(self) -> dict:
        """Ask the server to drain and stop."""
        return self._request("POST", "/api/shutdown")

    def wait_stopped(self, deadline: float = 30.0,
                     interval: float = 0.1) -> None:
        """Poll until the listener is gone (clean-shutdown checks)."""
        limit = time.monotonic() + deadline
        while time.monotonic() < limit:
            try:
                self.health()
            except (OSError, HTTPException):
                return
            time.sleep(interval)
        raise TimeoutError("server still answering after shutdown")
