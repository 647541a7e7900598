"""``python -m repro serve`` — a long-running reputation service.

A minimal JSON-over-HTTP server on the stdlib event loop
(:func:`asyncio.start_server`; no web framework), exposing the
:class:`~repro.api.service.SimulationService` and a durable
:class:`~repro.storage.ReputationStore` as one process:

================================  =============================================
``GET  /health``                  liveness + store/driver info
``GET  /catalogue``               every registry (schemes, scenarios, ...)
``POST /runs``                    submit a :class:`RunRequest` document;
                                  returns ``{"run": "r1", ...}`` immediately
``GET  /runs``                    all runs (live and restored from the store)
``GET  /runs/<id>``               one run's status, progress and digest
``GET  /runs/<id>/events``        NDJSON stream of progress events (one line
                                  per completed repeat, closes when done)
``GET  /reputation``              schemes with persisted peer records
``GET  /reputation/<scheme>``     every persisted peer record of a scheme
``GET  /reputation/<scheme>/<id>``  one peer's persisted reputation
``GET  /state``                   snapshot keys in the backing store
``GET  /report``                  consolidated report (robustness matrix +
                                  detection quality);
                                  query params: ``sections``, ``scenario``,
                                  ``scale``, ``repeats``, ``seed``,
                                  ``schemes``, ``attacks`` (lists are
                                  comma-separated)
``POST /shutdown``                graceful shutdown (same path as SIGTERM)
================================  =============================================

Eligible submissions (``repeats == 1``, no trace facet)
are stamped with a persistence facet keyed ``run/<run id>``, so every
finished run's backend state is checkpointed into the service's store and
its peers become queryable under ``/reputation/...`` — including after a
restart, which is the point: the store outlives the process, and graceful
shutdown (SIGTERM, SIGINT or ``POST /shutdown``) drains in-flight runs and
saves the run registry before closing, so a restarted service still lists
them.

Connections are one-request-per-connection (``Connection: close``) — the
clients this serves are ``curl``, CI pollers and test harnesses, not
browsers hammering keep-alive pools.
"""

from __future__ import annotations

import asyncio
import http
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs

from ..errors import ConfigurationError, PersistenceError, ReproError
from ..storage import PersistSpec, ReputationStore, make_store
from .catalogue import catalogue as build_catalogue
from .errors import UnknownNameError
from .handle import ProgressEvent, RunHandle
from .request import RunRequest
from .service import SimulationService

__all__ = ["ReputationServer", "serve"]

#: Snapshot key the run registry is saved under at graceful shutdown.
REGISTRY_KEY = "service/runs"

#: Pseudo-scheme tag for the registry snapshot (it is service state, not a
#: reputation backend's).
REGISTRY_SCHEME = "_service"

#: Largest request body read; a longer ``Content-Length`` is answered 413
#: before any of the body is read (a run request is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


@dataclass
class _RunEntry:
    """One submitted (or restored) run in the registry."""

    run_id: str
    label: str
    scheme: str
    status: str = "running"
    persisted: bool = False
    digest: str = ""
    error: str = ""
    events: list[dict[str, Any]] = field(default_factory=list)
    handle: RunHandle | None = None

    def to_document(self) -> dict[str, Any]:
        return {
            "run": self.run_id,
            "label": self.label,
            "scheme": self.scheme,
            "status": self.status,
            "persisted": self.persisted,
            "digest": self.digest,
            "error": self.error,
            "events": len(self.events),
        }


class _HttpError(Exception):
    """An error with a definite HTTP status (flows to one response site)."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.document = {"error": message, **extra}


class ReputationServer:
    """The asyncio HTTP service binding a store to a simulation service.

    Parameters
    ----------
    store_url:
        Durable-store URL (``sqlite://path``, ``memory://name``) or a bare
        sqlite path.  With the process executor backend the store must be
        file-backed — worker processes cannot see an in-memory store — so
        ``memory://`` URLs force the thread backend.
    host / port:
        Bind address; port ``0`` picks a free port (``port`` then reports
        the actual one once started).
    jobs / backend:
        Forwarded to :class:`SimulationService`.
    drain_timeout:
        Seconds graceful shutdown waits for in-flight runs before
        cancelling them.
    """

    def __init__(
        self,
        store_url: str,
        host: str = "127.0.0.1",
        port: int = 8737,
        jobs: int = 1,
        backend: str | None = None,
        drain_timeout: float = 30.0,
    ) -> None:
        self.store_url = str(store_url)
        self.host = host
        self.port = int(port)
        if backend is None and self.store_url.startswith("memory://"):
            backend = "thread" if jobs > 1 else "serial"
        self.service = SimulationService(jobs=jobs, backend=backend)
        self.store: ReputationStore = make_store(self.store_url)
        self.drain_timeout = drain_timeout
        self._runs: dict[str, _RunEntry] = {}
        self._next_run = 1
        self._lock = threading.Lock()
        self._shutdown = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Set once the socket is bound (threaded test harnesses wait on it).
        self.started = threading.Event()
        self._restore_registry()

    # ------------------------------------------------------------------ #
    # Registry persistence                                                 #
    # ------------------------------------------------------------------ #
    def _restore_registry(self) -> None:
        snapshot = self.store.load_state(REGISTRY_KEY)
        if snapshot is None:
            return
        payload = snapshot.payload
        self._next_run = int(payload.get("next_run", 1))
        for document in payload.get("runs", ()):
            entry = _RunEntry(
                run_id=str(document["run"]),
                label=str(document.get("label", "")),
                scheme=str(document.get("scheme", "")),
                status=str(document.get("status", "done")),
                persisted=bool(document.get("persisted", False)),
                digest=str(document.get("digest", "")),
                error=str(document.get("error", "")),
            )
            # A run that was still in flight when the last process died
            # never finished — its checkpoint (written on finalize) does
            # not exist, and neither does its result.
            if entry.status == "running":
                entry.status = "lost"
            self._runs[entry.run_id] = entry

    def _save_registry(self) -> None:
        with self._lock:
            documents = [entry.to_document() for entry in self._runs.values()]
            payload = {"next_run": self._next_run, "runs": documents}
        self.store.save_state(
            REGISTRY_KEY, REGISTRY_SCHEME, payload, saved_at=time.time()
        )

    # ------------------------------------------------------------------ #
    # Run lifecycle                                                        #
    # ------------------------------------------------------------------ #
    def _submit(self, body: dict[str, Any]) -> _RunEntry:
        if "persist" in body:
            raise _HttpError(
                400,
                "the service owns persistence (runs checkpoint into its "
                "store automatically); drop 'persist' from the request",
            )
        try:
            request = RunRequest.from_dict(body)
        except UnknownNameError as exc:
            raise _HttpError(
                400, str(exc), kind=exc.kind, known=list(exc.known)
            ) from exc
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from exc
        with self._lock:
            run_id = f"r{self._next_run}"
            self._next_run += 1
        eligible = request.trace is None and request.repeats == 1
        if eligible:
            request = request.with_updates(
                persist=PersistSpec(store=self.store_url, key=f"run/{run_id}")
            )
        entry = _RunEntry(
            run_id=run_id,
            label=request.run_label(),
            scheme=request.resolve().reputation_scheme,
            persisted=eligible,
        )

        def on_event(event: ProgressEvent) -> None:
            with self._lock:
                entry.events.append(
                    {
                        "run": run_id,
                        "label": event.label,
                        "repeat": event.repeat,
                        "seed": event.seed,
                        "completed": event.completed,
                        "total": event.total,
                    }
                )

        entry.handle = self.service.submit(request, on_event=on_event)
        with self._lock:
            self._runs[run_id] = entry
        return entry

    def _refresh(self, entry: _RunEntry) -> None:
        """Fold a finished handle's outcome into the registry entry."""
        handle = entry.handle
        if handle is None or entry.status != "running" or not handle.done():
            return
        try:
            result = handle.result(timeout=0)
        except ReproError as exc:
            with self._lock:
                entry.status = "cancelled" if handle.cancelled else "failed"
                entry.error = str(exc)
            return
        except Exception as exc:  # noqa: BLE001 - surfaced via the API
            with self._lock:
                entry.status = "failed"
                entry.error = str(exc)
            return
        with self._lock:
            entry.status = "done"
            entry.digest = result.digest()

    def _entry(self, run_id: str) -> _RunEntry:
        with self._lock:
            entry = self._runs.get(run_id)
        if entry is None:
            raise _HttpError(
                404, f"unknown run {run_id!r}", known=sorted(self._runs)
            )
        self._refresh(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Consolidated report                                                  #
    # ------------------------------------------------------------------ #
    def _report(self, query: dict[str, list[str]]) -> dict[str, Any]:
        """The consolidated report document for ``GET /report``.

        Runs the grid experiments on the server's own simulation service
        (sharing its worker pool and run cache).  Blocking — the connection
        handler dispatches it through :func:`asyncio.to_thread`.
        """
        # Imported per request: the report generator pulls in the whole
        # experiments package, which no other route needs.
        from ..analysis.storage import _json_safe
        from ..report import generate_report
        from .catalogue import resolve_scenario

        def listing(name: str) -> list[str] | None:
            values = [
                item
                for raw in query.get(name, [])
                for item in raw.split(",")
                if item
            ]
            return values or None

        def number(name: str, cast: type, default: Any) -> Any:
            values = query.get(name)
            if not values:
                return default
            try:
                return cast(values[-1])
            except ValueError:
                raise _HttpError(
                    400, f"query parameter {name!r} must be "
                    f"{'an integer' if cast is int else 'a number'}, "
                    f"got {values[-1]!r}"
                ) from None

        seed = number("seed", int, 1)
        repeats = number("repeats", int, 3)
        scenario = query.get("scenario", [None])[-1]
        base_params = (
            resolve_scenario(scenario, seed=seed) if scenario else None
        )
        # Mirrors the CLI: a named scenario is already sized.
        scale = number("scale", float, 1.0 if scenario else 0.1)
        document = generate_report(
            listing("sections"),
            service=self.service,
            scale=scale,
            repeats=repeats,
            seed=seed,
            base_params=base_params,
            schemes=listing("schemes"),
            attacks=listing("attacks"),
        )
        # NaN cells (e.g. time-to-detection when nothing was detected) must
        # not reach json.dumps un-sanitised: bare NaN tokens are not JSON.
        return _json_safe(document)

    # ------------------------------------------------------------------ #
    # Request routing                                                      #
    # ------------------------------------------------------------------ #
    def _route(self, method: str, path: str, body: dict[str, Any] | None):
        parts = [part for part in path.split("/") if part]
        if method == "GET" and parts == ["health"]:
            return 200, {
                "status": "ok",
                "store": self.store_url,
                "backend": self.service.backend,
                "jobs": self.service.jobs,
                "runs": len(self._runs),
            }
        if method == "GET" and parts == ["catalogue"]:
            return 200, build_catalogue()
        if method == "POST" and parts == ["runs"]:
            if body is None:
                raise _HttpError(400, "POST /runs needs a JSON request body")
            entry = self._submit(body)
            return 202, entry.to_document()
        if method == "GET" and parts == ["runs"]:
            with self._lock:
                entries = list(self._runs.values())
            for entry in entries:
                self._refresh(entry)
            return 200, {"runs": [entry.to_document() for entry in entries]}
        if method == "GET" and len(parts) == 2 and parts[0] == "runs":
            return 200, self._entry(parts[1]).to_document()
        if method == "GET" and parts == ["reputation"]:
            return 200, {"schemes": self.store.peer_schemes()}
        if method == "GET" and len(parts) == 2 and parts[0] == "reputation":
            records = self.store.list_peers(parts[1])
            return 200, {
                "scheme": parts[1],
                "peers": [
                    {
                        "subject": record.subject,
                        "score": record.score,
                        "reports": record.reports,
                        "adjustments": record.adjustments,
                    }
                    for record in records
                ],
            }
        if method == "GET" and len(parts) == 3 and parts[0] == "reputation":
            scheme, subject_text = parts[1], parts[2]
            try:
                subject = int(subject_text)
            except ValueError:
                raise _HttpError(
                    400, f"peer id must be an integer, got {subject_text!r}"
                ) from None
            record = self.store.get_peer(scheme, subject)
            if record is None:
                raise _HttpError(
                    404, f"no persisted reputation for peer {subject} "
                    f"under scheme {scheme!r}"
                )
            return 200, {
                "scheme": scheme,
                "subject": record.subject,
                "score": record.score,
                "reports": record.reports,
                "adjustments": record.adjustments,
                "updated_at": record.updated_at,
            }
        if method == "GET" and parts == ["state"]:
            return 200, {"keys": self.store.state_keys()}
        if method == "POST" and parts == ["shutdown"]:
            self.request_shutdown()
            return 202, {"status": "shutting down"}
        raise _HttpError(404, f"no route for {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------ #
    # HTTP plumbing                                                        #
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
            if method == "GET" and path.endswith("/events"):
                parts = [part for part in path.split("/") if part]
                if len(parts) == 3 and parts[0] == "runs":
                    await self._stream_events(writer, parts[1])
                    return
            if method == "GET" and path.rstrip("/") == "/report":
                # Report generation runs whole experiment grids; keep the
                # event loop responsive while it does.
                try:
                    document = await asyncio.to_thread(
                        self._report, parse_qs(query)
                    )
                except _HttpError:
                    raise
                except UnknownNameError as exc:
                    raise _HttpError(
                        400, str(exc), kind=exc.kind, known=list(exc.known)
                    ) from exc
                except Exception as exc:  # noqa: BLE001 - must answer
                    raise _HttpError(500, f"internal error: {exc}") from exc
                await self._respond(writer, 200, document)
                return
            try:
                status, document = self._route(method, path, body)
            except _HttpError:
                raise
            except PersistenceError as exc:
                raise _HttpError(500, str(exc)) from exc
            except Exception as exc:  # noqa: BLE001 - must answer the client
                raise _HttpError(500, f"internal error: {exc}") from exc
            await self._respond(writer, status, document)
        except _HttpError as error:
            await self._respond(writer, error.status, error.document)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, Any] | None]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "malformed Content-Length") from None
                if content_length < 0:
                    raise _HttpError(400, "malformed Content-Length")
                if content_length > MAX_BODY_BYTES:
                    raise _HttpError(
                        413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                    )
        body: dict[str, Any] | None = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"request body is not JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise _HttpError(400, "request body must be a JSON object")
            body = parsed
        path, _, query = target.partition("?")
        return method.upper(), path, query, body

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, document: Any
    ) -> None:
        payload = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        writer.write(
            f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(payload)
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, run_id: str
    ) -> None:
        """NDJSON progress stream: one line per event, closes when done."""
        entry = self._entry(run_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            self._refresh(entry)
            with self._lock:
                fresh = entry.events[sent:]
                status = entry.status
            for event in fresh:
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                sent += 1
            await writer.drain()
            if status != "running":
                writer.write(
                    (json.dumps({"run": run_id, "status": status},
                                sort_keys=True) + "\n").encode()
                )
                await writer.drain()
                return
            await asyncio.sleep(0.05)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (thread- and signal-safe)."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._shutdown.set)

    async def serve_forever(self) -> None:
        """Bind, serve until shutdown is requested, then drain and persist."""
        self._loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
        server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        print(
            f"repro serve listening on http://{self.host}:{self.port} "
            f"(store={self.store_url})",
            flush=True,
        )
        self.started.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            await asyncio.to_thread(self._drain)

    def _drain(self) -> None:
        """Graceful-shutdown tail: finish runs, persist the registry, close.

        In-flight handles get ``drain_timeout`` seconds to finish (their
        finalize hook is what checkpoints backend state into the store);
        stragglers are cancelled.  The registry snapshot is written last, so
        a restarted service lists every run with its final status.
        """
        deadline = time.monotonic() + self.drain_timeout
        with self._lock:
            entries = list(self._runs.values())
        for entry in entries:
            handle = entry.handle
            if handle is None:
                continue
            if not handle.wait(timeout=max(0.0, deadline - time.monotonic())):
                handle.cancel()
                handle.wait(timeout=5.0)
            self._refresh(entry)
        self._save_registry()
        self.service.close()
        self.store.close()


def serve(
    store_url: str,
    host: str = "127.0.0.1",
    port: int = 8737,
    jobs: int = 1,
    backend: str | None = None,
) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    server = ReputationServer(
        store_url, host=host, port=port, jobs=jobs, backend=backend
    )
    asyncio.run(server.serve_forever())
