"""Thin blocking client for the sweep service (stdlib ``http.client``).

Used by ``repro submit``, the tests and
``benchmarks/bench_serve_concurrency.py``.  Deliberately synchronous —
callers that want concurrency run many clients on threads, which is also
exactly the shape the coalescing/admission machinery is built to absorb.

Backpressure is a first-class outcome, not an exception the caller has
to dig out of a response: :meth:`ServeClient.submit` raises
:class:`Backpressure` (carrying ``retry_after_s``) on a 429, and
:meth:`ServeClient.run` turns that into honest retry-with-backoff — the
loop every well-behaved client of this service ends up writing.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator

__all__ = ["Backpressure", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """An HTTP error response from the service (status + message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class Backpressure(ServeError):
    """HTTP 429: admission control asked us to come back later."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s


class ServeClient:
    """One service endpoint; connections are per-call (the server closes
    them anyway)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787, *,
                 timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- low-level ------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            try:
                decoded = json.loads(data) if data else {}
            except json.JSONDecodeError:
                decoded = {"error": data.decode("utf-8", "replace")}
            return response.status, decoded
        finally:
            conn.close()

    # -- API ------------------------------------------------------------

    def healthz(self) -> dict:
        status, body = self._request("GET", "/healthz")
        if status != 200:
            raise ServeError(status, body.get("error", "health check failed"))
        return body

    def stats(self) -> dict:
        status, body = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServeError(status, body.get("error", "stats failed"))
        return body

    def submit(self, request: dict) -> dict:
        """POST the sweep; returns the submission body (``sweep_id``,
        ``attached``, resolution counts).  Raises :class:`Backpressure`
        on 429 and :class:`ServeError` on any other error."""
        status, body = self._request("POST", "/v1/sweeps", request)
        if status == 429:
            raise Backpressure(
                body.get("reason", "backpressure"),
                float(body.get("retry_after_s", 1.0)),
            )
        if status not in (200, 202):
            raise ServeError(status, body.get("error", "submission failed"))
        return body

    def status(self, sweep_id: str) -> dict:
        status, body = self._request("GET", f"/v1/sweeps/{sweep_id}")
        if status != 200:
            raise ServeError(status, body.get("error", f"unknown sweep {sweep_id}"))
        return body

    def events(self, sweep_id: str) -> Iterator[dict]:
        """Stream ``GET /v1/sweeps/<id>/events``: yields each NDJSON
        record; ends when the server closes the stream (terminal status
        or archived replay exhausted)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/sweeps/{sweep_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "stream failed")
                except (json.JSONDecodeError, AttributeError):
                    message = "stream failed"
                raise ServeError(response.status, message)
            buffer = b""
            while True:
                read1 = getattr(response, "read1", None)
                chunk = read1(65536) if read1 is not None else response.read(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()

    def wait(self, sweep_id: str, *, poll_s: float = 0.1) -> dict:
        """Follow the event stream until the sweep reaches a terminal
        status, then return the final status payload.

        The terminal record the stream carries *is* that payload (with
        ``result``); re-querying could read ``archived`` if retention
        evicted the sweep in between."""
        while True:
            terminal = None
            for event in self.events(sweep_id):
                if event.get("event") == "status" and event.get("status") != "running":
                    terminal = event
            if terminal is not None:
                terminal.pop("event")
                return terminal
            # Stream ended without a terminal status (e.g. drain race):
            # re-check, and re-attach if still running.
            current = self.status(sweep_id)
            if current.get("status") != "running":
                return current
            time.sleep(poll_s)

    def run(self, request: dict, *, max_attempts: int = 60) -> dict:
        """Submit-with-backoff, then wait: the whole client-side loop.

        Retries 429s honoring ``retry_after_s``; returns the terminal
        status payload (with ``result`` when the sweep completed)."""
        for attempt in range(max_attempts):
            try:
                submission = self.submit(request)
                break
            except Backpressure as exc:
                if attempt == max_attempts - 1:
                    raise
                time.sleep(min(exc.retry_after_s, 5.0))
        if submission.get("status") != "running":
            # Resolved at submit time (warm store, journal replay, or an
            # attach to a finished sweep): no stream needed.
            return submission
        return self.wait(submission["sweep_id"])
