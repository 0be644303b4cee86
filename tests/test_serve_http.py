"""End-to-end HTTP tests: real sockets, the threaded server, the client.

Each test boots the full stack (``start_in_thread`` -> asyncio loop ->
``repro.serve.http`` -> :class:`SweepService`) on an OS-assigned port
and talks to it with :class:`ServeClient` — the same path ``repro
submit`` takes — plus raw ``http.client`` for the protocol-edge cases a
well-behaved client never sends.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.runner import ServeSettings, start_in_thread

TINY = {
    "apps": ["ft"],
    "policies": ["shared", "static-equal"],
    "intervals": 3,
    "interval_instructions": 2000,
}


@pytest.fixture
def server(tmp_path):
    settings = ServeSettings(port=0, data_dir=tmp_path / "data", jobs=1)
    handle = start_in_thread(settings)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def client(server):
    return ServeClient(port=server.port, timeout=60.0)


class TestRoutes:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_submit_wait_and_result(self, client):
        final = client.run(TINY)
        assert final["status"] == "done"
        assert final["completed"] == final["total_cells"] == 2
        assert final["result"]["n_failures"] == 0
        assert "static-equal" in final["result"]["mean_speedups"]

    def test_status_of_unknown_sweep_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("0" * 64)
        assert exc.value.status == 404

    def test_events_stream_ndjson(self, client):
        submission = client.submit(TINY)
        events = list(client.events(submission["sweep_id"]))
        assert events[0]["event"] == "status"
        cells = [e for e in events if e["event"] == "cell"]
        assert len(cells) == 2
        assert events[-1]["status"] == "done"

    def test_stats_route(self, client):
        client.run(TINY)
        stats = client.stats()
        assert stats["engine"] == "serial"
        assert stats["counters"]["serve.cells.executed"] == 2
        assert stats["store"]["writes"] == 2

    def test_invalid_body_is_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"apps": ["nope"], "policies": ["shared"]})
        assert exc.value.status == 400
        assert "unknown workloads" in str(exc.value)

    def test_malformed_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/v1/sweeps", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
        finally:
            conn.close()

    def test_wrong_method_is_405(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/v1/sweeps")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_unknown_route_is_404(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()


class TestCoalescingOverHttp:
    def test_concurrent_identical_submissions_execute_once(self, client):
        """Satellite: N concurrent clients, same grid -> one engine
        execution per cell and byte-identical aggregates for everyone."""
        n_clients = 4
        results: list[dict] = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def worker(i: int) -> None:
            barrier.wait()
            results[i] = client.run({**TINY, "client": f"client-{i}"})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(r is not None and r["status"] == "done" for r in results)
        # All clients share one sweep id and byte-identical aggregates.
        ids = {r["sweep_id"] for r in results}
        assert len(ids) == 1
        rendered = {
            json.dumps(
                {k: r["result"][k] for k in ("cells", "mean_speedups", "n_failures")},
                sort_keys=True,
            )
            for r in results
        }
        assert len(rendered) == 1
        stats = client.stats()
        # The hard invariant: 2 distinct cells -> exactly 2 executions,
        # no matter how many clients raced.
        assert stats["counters"]["serve.cells.executed"] == 2
        assert stats["counters"]["serve.cells.scheduled"] == 2
        assert stats["store"]["writes"] == 2


class TestBackpressureOverHttp:
    def test_429_carries_retry_after_header_and_body(self, tmp_path):
        settings = ServeSettings(
            port=0, data_dir=tmp_path / "data", jobs=1, max_pending_cells=1
        )
        handle = start_in_thread(settings)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/sweeps", body=json.dumps(TINY).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 429
                assert int(response.headers["Retry-After"]) >= 1
                body = json.loads(response.read())
                assert body["reason"] == "backlog"
            finally:
                conn.close()
            # The typed client surfaces the same thing as Backpressure.
            with pytest.raises(Backpressure) as exc:
                ServeClient(port=handle.port).submit(TINY)
            assert exc.value.retry_after_s >= 0.1
        finally:
            handle.stop()


class TestArchivedReplay:
    def test_events_replayed_from_journal_after_restart(self, tmp_path):
        settings = ServeSettings(port=0, data_dir=tmp_path / "data", jobs=1)
        handle = start_in_thread(settings)
        try:
            sweep_id = ServeClient(port=handle.port).run(TINY)["sweep_id"]
        finally:
            handle.stop()
        # New incarnation, same data dir: memory empty, journal remains.
        handle = start_in_thread(
            ServeSettings(port=0, data_dir=tmp_path / "data", jobs=1)
        )
        try:
            client = ServeClient(port=handle.port)
            status = client.status(sweep_id)
            assert status["status"] == "archived"
            assert status["completed"] == 2
            events = list(client.events(sweep_id))
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == 2 and all(e["replayed"] for e in cells)
        finally:
            handle.stop()


class TestClientWait:
    """``wait`` returns the terminal record it streamed, not a re-query."""

    DONE = {"sweep_id": "s1", "status": "done", "result": {"n_failures": 0}}

    @staticmethod
    def _client(monkeypatch, events, current):
        client = ServeClient(port=1)
        monkeypatch.setattr(client, "events", lambda sweep_id: iter(events))
        monkeypatch.setattr(client, "status", lambda sweep_id: dict(current))
        return client

    def test_streamed_done_wins_over_an_archived_requery(self, monkeypatch):
        # Retention evicted the sweep between its terminal record and any
        # follow-up GET, which would now answer "archived" with no result.
        events = [
            {"event": "status", "sweep_id": "s1", "status": "running"},
            {"event": "status", **self.DONE},
        ]
        archived = {"sweep_id": "s1", "status": "archived"}
        client = self._client(monkeypatch, events, archived)
        assert client.wait("s1") == self.DONE

    def test_stream_without_terminal_record_falls_back_to_status(self, monkeypatch):
        events = [{"event": "status", "sweep_id": "s1", "status": "running"}]
        client = self._client(monkeypatch, events, self.DONE)
        assert client.wait("s1") == self.DONE
