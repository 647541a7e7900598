"""The ``serve_mixed`` workload: one server process, one closed-loop client.

The client runs two loops in threads, each waiting for every reply before it
sends the next request (the server's real clients are pollers and CI jobs):

* submitter: ``POST /runs`` a tiny_test rocq run, poll ``GET /runs/<id>``
  every ``POLL_S`` until it is no longer running, check the run digest
  against the recorded one, then ``GET /reputation/rocq``.  The first poll
  of each run comes after a random share of ``POLL_S``, so that turnaround
  times are not all rounded up to whole poll intervals;
* reader: ``GET /reputation/rocq/<id>`` over the peers persisted so far,
  starting once the first run is done.

Every repetition starts a fresh server on an empty sqlite store: the server
restores its run registry from the store, so a reused file would carry runs
over from the last repetition.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds between two polls of a running run: the rate of the CI
#: service-smoke job, the repository's one other client of the server.
#: Polling every 10 ms instead raised the median read latency from 0.65 to
#: 1.74 ms (see perfbench/README.md).
POLL_S = 0.2
#: Seconds any single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Seconds the server may take to answer its first ``GET /health``.
START_TIMEOUT_S = 60.0
#: Transactions of one tiny_test run (``repro.workloads.scenarios.tiny_test``).
TINY_TEST_TRANSACTIONS = 3000


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port: int, method: str, path: str, body: dict | None = None):
    """(status, decoded JSON or None, seconds) of one request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    started = time.perf_counter()
    try:
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    try:
        document = json.loads(raw)
    except ValueError:
        document = None
    return response.status, document, elapsed


class Server:
    """One server process on a fresh store, started and stopped by the client."""

    def __init__(
        self, root: Path, out_dir: Path, tag: str, traced: bool, spans_path: str
    ) -> None:
        self.db = out_dir / f"serve-{tag}.db"
        self._remove_db()
        self.port = _free_port()
        self.layers_path = out_dir / f"serve-{tag}-layers.json"
        store = f"sqlite://{self.db}"
        if traced:
            command = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                       store, str(self.port), str(self.layers_path)]
            command += [spans_path] if spans_path else []
        else:
            command = [sys.executable, "-m", "repro", "serve", "--store", store,
                       "--port", str(self.port)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._stderr = open(out_dir / f"serve-{tag}.stderr", "w+b")
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=self._stderr
        )
        self.setup_s = self._wait_healthy(spawned)

    def _wait_healthy(self, spawned: float) -> float:
        while time.monotonic() - spawned < START_TIMEOUT_S:
            if self.process.poll() is not None:
                break
            try:
                status, _, _ = _request(self.port, "GET", "/health")
            except (OSError, http.client.HTTPException):
                time.sleep(0.005)
                continue
            if status == 200:
                return time.monotonic() - spawned
        self.stop()
        raise RuntimeError(f"server did not become healthy: {self.stderr()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stderr(self) -> str:
        if self._stderr.closed:
            return self._stderr_text
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace")[-2000:]

    def stop(self) -> int:
        """Graceful shutdown; kills the process only if it does not exit."""
        if self.process.poll() is None:
            try:
                _request(self.port, "POST", "/shutdown")
            except (OSError, http.client.HTTPException):
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stderr_text = self.stderr()
        self._stderr.close()
        Path(self._stderr.name).unlink(missing_ok=True)
        self._remove_db()
        return self.process.returncode

    def _remove_db(self) -> None:
        for suffix in ("", "-wal", "-shm", "-journal"):
            Path(f"{self.db}{suffix}").unlink(missing_ok=True)


class _Tally:
    """Thread-safe operation counts and latency samples of one repetition."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.errors: list[str] = []
        self.submit_s: list[float] = []
        self.query_s: list[float] = []
        self.turnaround_s: list[float] = []
        self.transactions = 0

    def call(self, port, method, path, body=None, expect=200):
        """One request; returns its document, or ``None`` if it failed."""
        with self.lock:
            self.attempted += 1
        try:
            status, document, elapsed = _request(port, method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            return self.fail(f"{method} {path}: {exc!r}")
        if status != expect or not isinstance(document, dict):
            return self.fail(f"{method} {path}: status {status}")
        with self.lock:
            self.completed += 1
        return document, elapsed

    def fail(self, message: str):
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)
        return None


def run_repetition(
    root: Path,
    out_dir: Path,
    tag: str,
    run_seeds,
    expected: dict[str, str],
    client_seed: int,
    drive_seconds: float | None = None,
    script: tuple[int, int] | None = None,
    traced: bool = False,
    spans_path: str = "",
) -> dict:
    """Drive one server for ``drive_seconds`` or through ``script``.

    ``script=(runs, reads)`` fixes the number of runs and of reads instead
    of the duration, so every count in a traced repetition is exact.
    ``run_seeds`` yields the tiny_test seed of each submitted run and
    ``expected`` maps it to the recorded run digest; ``client_seed`` seeds
    the poll offsets and the peers read.  With ``traced`` the
    server runs with the layer wrappers, and writes its spans to
    ``spans_path`` if one is given.
    """
    server = Server(root, out_dir, tag, traced, spans_path)
    tally = _Tally()
    peers: list[int] = []
    first_run_done = threading.Event()
    stop_reading = threading.Event()
    port = server.port
    started = time.perf_counter()

    def more_runs(done: int) -> bool:
        if script is not None:
            return done < script[0]
        return time.perf_counter() - started < drive_seconds

    def submitter() -> None:
        try:
            submit_runs()
        except Exception as exc:  # noqa: BLE001 - a client bug fails the run
            tally.fail(f"submitter: {exc!r}")
        finally:
            first_run_done.set()
            if script is None:
                stop_reading.set()

    def submit_runs() -> None:
        rng = random.Random(2 * client_seed)
        done = 0
        while more_runs(done):
            done += 1
            seed = next(run_seeds)
            body = {"scenario": "tiny_test", "scheme": "rocq", "seed": seed}
            submitted = time.perf_counter()
            reply = tally.call(port, "POST", "/runs", body, expect=202)
            if reply is None:
                continue
            tally.submit_s.append(reply[1])
            run_id = reply[0].get("run")
            delay = rng.uniform(0.0, POLL_S)
            while True:
                time.sleep(delay)
                delay = POLL_S
                reply = tally.call(port, "GET", f"/runs/{run_id}")
                if reply is None or reply[0].get("status") != "running":
                    break
            if reply is None:
                continue
            finished = time.perf_counter()
            status, digest = reply[0].get("status"), reply[0].get("digest")
            if status != "done":
                tally.fail(f"run {run_id} ended {status}: {reply[0].get('error')}")
                continue
            if digest != expected.get(str(seed)):
                tally.fail(f"run {run_id} (tiny_test seed {seed}) digest {digest}")
                continue
            tally.turnaround_s.append(finished - submitted)
            tally.transactions += TINY_TEST_TRANSACTIONS
            reply = tally.call(port, "GET", "/reputation/rocq")
            if reply is not None:
                listed = sorted(int(peer["subject"]) for peer in reply[0].get("peers", ()))
                if not listed:
                    tally.fail("GET /reputation/rocq listed no peers after a run")
                with tally.lock:
                    peers[:] = sorted(set(peers) | set(listed))
            first_run_done.set()

    def reader() -> None:
        try:
            read_peers()
        except Exception as exc:  # noqa: BLE001 - a client bug fails the run
            tally.fail(f"reader: {exc!r}")

    def read_peers() -> None:
        rng = random.Random(2 * client_seed + 1)
        first_run_done.wait()
        reads = 0
        while not stop_reading.is_set():
            if script is not None and reads >= script[1]:
                return
            with tally.lock:
                if not peers:
                    return
                subject = peers[rng.randrange(len(peers))]
            reads += 1
            reply = tally.call(port, "GET", f"/reputation/rocq/{subject}")
            if reply is None:
                continue
            document, elapsed = reply
            score = document.get("score")
            if document.get("subject") != subject or not (
                isinstance(score, (int, float)) and 0.0 <= score <= 1.0
            ):
                tally.fail(f"GET /reputation/rocq/{subject}: bad record {document}")
                continue
            tally.query_s.append(elapsed)

    threads = [threading.Thread(target=submitter), threading.Thread(target=reader)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        drive_s = time.perf_counter() - started
        peak_rss_mb = server.peak_rss_mb()
    finally:
        stop_reading.set()
        for thread in threads:
            thread.join()
        returncode = server.stop()
    if returncode != 0:
        tally.fail(f"server exited with {returncode}: {server.stderr()}")
    result = {
        "setup_s": server.setup_s,
        "peak_rss_mb": peak_rss_mb,
        "drive_s": drive_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "completed": tally.completed,
        "transactions": tally.transactions,
        "submit_s": tally.submit_s,
        "query_s": tally.query_s,
        "turnaround_s": tally.turnaround_s,
    }
    if traced and returncode == 0:
        result.update(json.loads(server.layers_path.read_text(encoding="utf-8")))
        server.layers_path.unlink()
    return result
