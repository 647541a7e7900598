"""The ``python -m repro serve`` HTTP service, exercised over real sockets.

Each test boots a :class:`ReputationServer` on an ephemeral port inside a
thread running its own asyncio loop — the same code path as the CLI, minus
the subprocess (the CI service-smoke job covers the real-process SIGTERM
flavour).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from http import HTTPStatus

import pytest

from repro.api.server import ReputationServer

TINY_BODY = {
    "seed": 11,
    "label": "srv",
    "overrides": {
        "num_initial_peers": 20,
        "num_transactions": 300,
        "arrival_rate": 0.05,
        "waiting_period": 20.0,
        "sample_interval": 100.0,
        "audit_transactions": 5,
    },
}


@contextmanager
def running_server(store_url: str, **kwargs):
    server = ReputationServer(store_url, port=0, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    assert server.started.wait(timeout=10), "server did not bind in time"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not shut down cleanly"


def request(server, method, path, body=None, timeout=30):
    """One HTTP exchange; returns (status, parsed JSON document)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_exchange(server, payload: bytes, timeout=10) -> bytes:
    """Send raw bytes on a fresh connection; return everything sent back."""
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=timeout) as conn:
        conn.sendall(payload)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def wait_done(server, run_id, timeout=60):
    """Stream /events until the run leaves the running state; return lines."""
    url = f"http://127.0.0.1:{server.port}/runs/{run_id}/events"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return [json.loads(line) for line in response]


class TestEndpoints:
    def test_health_catalogue_and_state(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, health = request(server, "GET", "/health")
            assert status == 200 and health["status"] == "ok"
            status, catalogue = request(server, "GET", "/catalogue")
            assert status == 200 and "rocq" in catalogue["schemes"]
            assert request(server, "GET", "/state")[1] == {"keys": []}

    def test_submit_stream_query_lifecycle(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, submitted = request(server, "POST", "/runs", TINY_BODY)
            assert status == 202
            assert submitted["persisted"] is True
            run_id = submitted["run"]
            lines = wait_done(server, run_id)
            # One progress event per repeat, then the terminal status line.
            assert lines[0]["completed"] == 1 and lines[0]["total"] == 1
            assert lines[-1] == {"run": run_id, "status": "done"}
            status, run = request(server, "GET", f"/runs/{run_id}")
            assert status == 200 and run["status"] == "done"
            assert run["digest"]
            assert request(server, "GET", "/runs")[1]["runs"][0]["run"] == run_id
            # The finished run's backend state is queryable per peer.
            status, peers = request(server, "GET", "/reputation/rocq")
            assert status == 200 and peers["peers"]
            subject = peers["peers"][0]["subject"]
            status, peer = request(
                server, "GET", f"/reputation/rocq/{subject}"
            )
            assert status == 200
            assert 0.0 <= peer["score"] <= 1.0
            assert request(server, "GET", "/reputation")[1] == {
                "schemes": ["rocq"]
            }

    def test_error_mapping(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = request(
                server, "POST", "/runs", {"scenario": "not-a-scenario"}
            )
            assert status == 400 and "scenario" in document["error"]
            assert "known" in document  # did-you-mean material
            assert request(server, "POST", "/runs", {"persist": "x"})[0] == 400
            assert request(server, "GET", "/runs/r99")[0] == 404
            assert request(server, "GET", "/reputation/rocq/7")[0] == 404
            assert request(server, "GET", "/reputation/rocq/seven")[0] == 400
            assert request(server, "GET", "/no/such/route")[0] == 404
            status, _ = request(server, "POST", "/runs", None)
            assert status == 400  # missing body

    def test_negative_content_length_is_a_400(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            reply = raw_exchange(
                server, b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), reply
            assert json.loads(body)["error"] == "malformed Content-Length"
            # The server is still healthy afterwards.
            assert request(server, "GET", "/health")[0] == 200

    def test_oversized_content_length_is_a_413_without_reading_the_body(
        self, tmp_path
    ):
        with running_server(str(tmp_path / "s.db")) as server:
            # Only 2 of the announced bytes ever arrive: a server that waits
            # for the whole body never answers and the recv times out.
            reply = raw_exchange(
                server,
                b"POST /runs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n{}",
                timeout=5,
            )
            head, _, body = reply.partition(b"\r\n\r\n")
            status_line = head.split(b"\r\n")[0].decode("latin-1")
            assert status_line == f"HTTP/1.1 413 {HTTPStatus(413).phrase}", reply
            assert "exceeds" in json.loads(body)["error"]
            assert request(server, "GET", "/health")[0] == 200

    def test_unknown_request_field_is_a_400_with_did_you_mean(self, tmp_path):
        body = dict(TINY_BODY, shards=2)
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = request(server, "POST", "/runs", body)
            assert status == 400
            assert document["kind"] == "request field"
            assert "shards" in document["error"]
            assert "seed" in document["known"]

    def test_ineligible_request_runs_without_persistence(self, tmp_path):
        body = dict(TINY_BODY, repeats=2)
        with running_server(str(tmp_path / "s.db")) as server:
            status, submitted = request(server, "POST", "/runs", body)
            assert status == 202 and submitted["persisted"] is False
            lines = wait_done(server, submitted["run"])
            assert lines[-1]["status"] == "done"
            assert request(server, "GET", "/state")[1] == {"keys": []}


class TestRestartSurvival:
    def test_reputation_and_registry_survive_restart(self, tmp_path):
        """Submit → complete → shutdown → new process-equivalent → same data."""
        db = str(tmp_path / "durable.db")
        with running_server(db) as server:
            run_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            wait_done(server, run_id)
            _, peers = request(server, "GET", "/reputation/rocq")
            subject = peers["peers"][0]["subject"]
            _, before = request(server, "GET", f"/reputation/rocq/{subject}")
        # The context manager performed the graceful shutdown (drain +
        # registry checkpoint + store close).  Boot a fresh server on the
        # same database, as a restarted process would.
        with running_server(db) as server:
            _, runs = request(server, "GET", "/runs")
            assert [entry["run"] for entry in runs["runs"]] == [run_id]
            assert runs["runs"][0]["status"] == "done"
            _, after = request(server, "GET", f"/reputation/rocq/{subject}")
            assert after == before
            keys = request(server, "GET", "/state")[1]["keys"]
            assert f"run/{run_id}" in keys and "service/runs" in keys
            # Run ids keep counting instead of colliding with restored ones.
            next_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            assert next_id != run_id
            wait_done(server, next_id)

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        server = ReputationServer(str(tmp_path / "s.db"), port=0)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve_forever()), daemon=True
        )
        thread.start()
        assert server.started.wait(timeout=10)
        status, document = request(server, "POST", "/shutdown")
        assert status == 202 and document == {"status": "shutting down"}
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(urllib.error.URLError):
            request(server, "GET", "/health", timeout=2)


class TestMemoryStoreServer:
    def test_memory_backed_server_shares_state_in_process(self, tmp_path):
        with running_server("memory://server-test") as server:
            run_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            lines = wait_done(server, run_id)
            assert lines[-1]["status"] == "done"
            _, peers = request(server, "GET", "/reputation/rocq")
            assert peers["peers"], (
                "the executor's checkpoint must land in the same in-process "
                "store the server queries"
            )
