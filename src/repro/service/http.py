"""Dependency-light HTTP front of the service.

The container deliberately carries no web framework, so the listener is a
small hand-rolled HTTP/1.1 layer over ``asyncio.start_server``: enough of
the protocol for JSON request/response bodies, keep-alive connections and
the five routes the service exposes.  The matching
:class:`HTTPServiceClient` (used by ``repro bombard`` and the CI smoke)
speaks the same subset over a persistent connection.

Routes
------
* ``GET /health`` — liveness document (clock, queue depth, clusters);
* ``GET /stats`` — counter snapshot with admit-latency percentiles and,
  when the reallocation heartbeat is enabled, its tuned/cancelled/migrated
  counters under ``"reallocation"``;
* ``POST /submit`` — one job (``{"procs", "runtime", "walltime"}``) or a
  batch (``{"jobs": [...]}``); replies 202 with the assigned id(s),
  429 under backpressure, 503 when full or shutting down;
* ``GET /jobs/<id>`` — status of one submission (404 when unknown);
* ``POST /jobs/<id>/cancel`` — cancel a queued or waiting job (409 when
  it already started or finished).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from repro.service.service import MetaSchedulerService, SubmitRejected

#: Upper bound on request heads and bodies (1 MiB is plenty for batches).
MAX_REQUEST_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: HTTP status of a refused submission, by :class:`SubmitRejected` reason.
_REJECT_STATUS = {"backpressure": 429, "queue-full": 503, "closing": 503}


class ServiceHTTP:
    """Asyncio HTTP listener exposing one :class:`MetaSchedulerService`."""

    def __init__(
        self,
        service: MetaSchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        #: requests served (all routes, errors included)
        self.requests = 0

    async def start(self) -> "ServiceHTTP":
        """Bind and start serving; ``port`` is updated when 0 was requested."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ServiceHTTP":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling                                                #
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, body = request
                self.requests += 1
                status, document = self._dispatch(method, path, body)
                payload = json.dumps(document).encode("utf-8")
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(payload)}\r\n"
                        "Connection: keep-alive\r\n\r\n"
                    ).encode("ascii")
                    + payload
                )
                await writer.drain()
        except (ConnectionError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client went away
                pass

    # ------------------------------------------------------------------ #
    # Routing                                                            #
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if path == "/health":
            if method != "GET":
                return 405, {"error": "health is GET-only"}
            return 200, self.service.health()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self.service.stats()
        if path == "/submit":
            if method != "POST":
                return 405, {"error": "submit is POST-only"}
            return self._submit(body)
        if path.startswith("/jobs/"):
            return self._jobs(method, path)
        return 404, {"error": f"unknown path {path!r}"}

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            document = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(document, dict):
            return 400, {"error": "submit body must be a JSON object"}
        specs = document.get("jobs")
        if specs is None:
            specs = [document]
        if not isinstance(specs, list) or not specs:
            return 400, {"error": "'jobs' must be a non-empty list"}
        job_ids: List[int] = []
        refusal: Optional[SubmitRejected] = None
        for spec in specs:
            try:
                ticket = self.service.offer(
                    procs=int(spec["procs"]),
                    runtime=float(spec["runtime"]),
                    walltime=(
                        float(spec["walltime"]) if "walltime" in spec else None
                    ),
                )
            except SubmitRejected as exc:
                refusal = exc
                break
            except (KeyError, TypeError, ValueError) as exc:
                return 400, {"error": f"invalid job spec: {exc}"}
            job_ids.append(ticket.job_id)
        if refusal is not None and not job_ids:
            return _REJECT_STATUS.get(refusal.reason, 503), {
                "error": str(refusal),
                "reason": refusal.reason,
                "job_ids": [],
            }
        response: Dict[str, object] = {
            "job_ids": job_ids,
            "accepted": len(job_ids),
            "rejected": len(specs) - len(job_ids),
        }
        if len(specs) == 1 and "jobs" not in document:
            response["job_id"] = job_ids[0]
        if refusal is not None:
            response["reason"] = refusal.reason
        return 202, response

    def _jobs(self, method: str, path: str) -> Tuple[int, Dict[str, object]]:
        parts = path.strip("/").split("/")
        # "jobs/<id>" or "jobs/<id>/cancel"
        if len(parts) < 2 or not parts[1].lstrip("-").isdigit():
            return 404, {"error": f"unknown path {path!r}"}
        job_id = int(parts[1])
        if len(parts) == 2:
            if method != "GET":
                return 405, {"error": "job status is GET-only"}
            try:
                return 200, self.service.ticket(job_id).to_dict()
            except KeyError:
                return 404, {"error": f"unknown job {job_id}"}
        if len(parts) == 3 and parts[2] == "cancel":
            if method != "POST":
                return 405, {"error": "cancel is POST-only"}
            try:
                return 200, self.service.cancel(job_id).to_dict()
            except KeyError:
                return 404, {"error": f"unknown job {job_id}"}
            except ValueError as exc:
                return 409, {"error": str(exc)}
        return 404, {"error": f"unknown path {path!r}"}


class HTTPServiceClient:
    """Minimal keep-alive JSON/HTTP client for one service endpoint."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "HTTPServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover - server went away
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "HTTPServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object]]:
        """One request over the persistent connection → ``(status, document)``."""
        if self._writer is None or self._reader is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        self._writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: keep-alive\r\n\r\n"
            ).encode("ascii")
            + payload
        )
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body_bytes = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(body_bytes or b"{}")

    # Convenience wrappers ------------------------------------------------
    async def submit(self, procs: int, runtime: float, walltime: Optional[float] = None):
        spec: Dict[str, object] = {"procs": procs, "runtime": runtime}
        if walltime is not None:
            spec["walltime"] = walltime
        return await self.request("POST", "/submit", spec)

    async def submit_batch(self, specs: List[Dict[str, object]]):
        return await self.request("POST", "/submit", {"jobs": specs})

    async def status(self, job_id: int):
        return await self.request("GET", f"/jobs/{job_id}")

    async def cancel(self, job_id: int):
        return await self.request("POST", f"/jobs/{job_id}/cancel")

    async def health(self):
        return await self.request("GET", "/health")

    async def stats(self):
        return await self.request("GET", "/stats")


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ConnectionError("truncated request head") from exc
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ConnectionError(f"malformed request line {lines[0]!r}") from exc
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError as exc:
                raise ConnectionError(f"bad Content-Length {value!r}") from exc
    if length < 0:
        raise ConnectionError(f"bad Content-Length {length}")
    if length > MAX_REQUEST_BYTES:
        raise ConnectionError(f"request body too large ({length} bytes)")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("truncated request body") from exc
    return method.upper(), path, body
