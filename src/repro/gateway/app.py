"""The asyncio serving gateway: HTTP front-end over one deterministic writer.

A hand-rolled HTTP/1.1 server on :mod:`asyncio` streams (the container
ships no HTTP framework, and the protocol subset a JSON API needs is
small): keep-alive connections, ``content-length`` bodies, JSON in and
out.  Endpoints:

========================  =====================================================
``GET  /health``          liveness + drain state
``GET  /stats``           the :meth:`GatewaySession.stats_payload` document
``GET  /records/<id>``    one completed request's serving observables
``POST /serve``           submit one request and *block* until it completes
``POST /serve_batch``     submit a micro-batch, block until all members finish
``POST /submit``          submit one request, return the admission ack only
``POST /flush``           complete all in-flight work
``POST /drain``           graceful drain: flush, checkpoint, seal the session
========================  =====================================================

Admission maps to status codes: queue-depth shed → **503** (a
:class:`~repro.serving.records.ShedEvent` lands in the SLO report),
per-tenant token-bucket refusal → **429** (a ``RateLimitEvent``), requests
arriving during a drain → **503 draining**, malformed payloads → **400**.
A request whose framing is lost — a ``content-length`` that is not a byte
count, a line longer than the reader buffers, more than 100 header lines —
is a **400** followed by a close of that connection only; so is a **408**
for a request whose head or body stalls after its request line arrived (an
idle keep-alive connection, which has sent no request line, is not timed).

Concurrency model — the lock discipline, spelled out
----------------------------------------------------
All session state (pipeline, cache, RNG streams, the embedded simulator)
is touched by exactly one task: the **writer**, which consumes
``(closure, future)`` commands from an :class:`asyncio.Queue` and executes
them sequentially.  Handlers never call the session directly — they
enqueue and await.  Two consequences:

* determinism: concurrent clients are serialized into *one* well-defined
  arrival order (queue order), so a gateway run is always equivalent to
  some sequential trace through the same pipeline; and
* graceful drain needs no barrier: the SIGTERM handler enqueues the drain
  *behind* every already-accepted command, so "flush in-flight batches"
  is FIFO order doing its job.

No other locks exist, and none are needed.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass

from repro.gateway.api import (
    PayloadError,
    error_payload,
    record_to_payload,
    request_from_payload,
)
from repro.gateway.session import ACCEPTED, GatewaySession

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: admission outcome -> HTTP status for the ack/response.
_STATUS = {"accepted": 200, "shed": 503, "rate_limited": 429}

#: Header lines read per request; one more is a 400 and a close, so a
#: client cannot hold the parser in its header loop without bound.
_MAX_HEADERS = 100

#: Seconds the rest of a request — headers and body — may take to arrive
#: once its request line has; a client that stalls longer is a 408 and a
#: close, so it cannot park a handler (and its buffers) without bound.
_REQUEST_READ_TIMEOUT_S = 10.0


class _RequestStalled(Exception):
    """Raised out of a pending read when a request outlives its deadline."""


@dataclass
class GatewayConfig:
    """Network shape of the gateway (the serving semantics live in the
    session).  ``port=0`` binds an ephemeral port — read
    :attr:`AsyncGateway.port` after :meth:`AsyncGateway.start`."""

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 * 1024 * 1024


class AsyncGateway:
    """The HTTP server wrapping one :class:`GatewaySession` (see module doc)."""

    def __init__(self, session: GatewaySession,
                 config: GatewayConfig | None = None) -> None:
        self.session = session
        self.config = config or GatewayConfig()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._commands: asyncio.Queue = asyncio.Queue()
        self._writer_task: asyncio.Task | None = None
        # Insertion-ordered (dict-as-set): close order stays deterministic.
        self._connections: dict[asyncio.StreamWriter, None] = {}
        self._draining = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the writer task."""
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (flush, checkpoint, stop)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (signal- or call-driven)."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful drain: seal the session, keep answering reads.

        Ordering is the whole story: (1) flip the draining flag so new
        submissions get 503 immediately; (2) enqueue the session drain
        *behind* every command already accepted — the writer finishes all
        in-flight serving work first, then runs the event loop to idle and
        takes the checkpoint.  The socket stays open so clients can still
        read ``/health``, ``/stats``, and ``/records`` from the drained
        state.  Idempotent: a second signal while draining is a no-op.
        """
        if self._draining:
            return
        self._draining = True
        await self._call(self.session.drain)

    async def shutdown(self) -> None:
        """Drain, then stop the writer and close the socket.

        Called from the signal handlers or by the embedding harness —
        never from inside a connection handler (a handler awaiting the
        death of all handlers would deadlock; ``POST /drain`` therefore
        maps to :meth:`drain`, not here).
        """
        if self._stopped.is_set():
            return
        try:
            await self.drain()
        finally:
            await self._commands.put(None)          # writer sentinel
            if self._writer_task is not None:
                await self._writer_task
            if self._server is not None:
                self._server.close()
            for conn in list(self._connections):
                conn.close()
            self._stopped.set()

    # -- the single writer -------------------------------------------------

    async def _writer_loop(self) -> None:
        while True:
            item = await self._commands.get()
            if item is None:
                return
            fn, future = item
            try:
                result = fn()
            except Exception as exc:  # surfaced on the caller's future
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)

    async def _call(self, fn):
        """Run ``fn`` on the writer; the only door to session state."""
        future = asyncio.get_running_loop().create_future()
        await self._commands.put((fn, future))
        return await future

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = None
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except PayloadError as exc:  # framing lost: answer, close
                    await self._respond(writer, 400, error_payload(
                        "bad request", str(exc)))
                    break
                except _RequestStalled:
                    await self._respond(writer, 408, error_payload(
                        "request timeout", "the rest of the request did not "
                        f"arrive within {_REQUEST_READ_TIMEOUT_S:g} s"))
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                if body is None:  # oversized
                    await self._respond(writer, 413, error_payload(
                        "payload too large",
                        f"limit is {self.config.max_body_bytes} bytes"))
                    break
                status, payload = await self._dispatch(method, path, body)
                await self._respond(writer, status, payload)
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as exc:  # longer than the StreamReader limit
            raise PayloadError(f"request or header line too long: {exc}") \
                from None

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await self._read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = line.decode("ascii").split(" ", 2)
        except ValueError:
            return None
        # One timer handle per request, not a wait_for (a task per request
        # before 3.12): on expiry the pending read raises, as every later
        # read on this connection would — the handler answers 408 and closes.
        deadline = asyncio.get_running_loop().call_later(
            _REQUEST_READ_TIMEOUT_S, reader.set_exception, _RequestStalled())
        try:
            return await self._read_rest(reader, method.upper(), target)
        finally:
            deadline.cancel()

    async def _read_rest(self, reader: asyncio.StreamReader, method: str,
                         target: str):
        headers: dict[str, str] = {}
        lines = 0
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > _MAX_HEADERS:
                raise PayloadError(
                    f"too many header lines: limit is {_MAX_HEADERS}")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise PayloadError("bad content-length: not a byte count")
        if length > self.config.max_body_bytes:
            return method, target, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(self, writer: asyncio.StreamWriter,
                       status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            "connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method: str, target: str,
                        body: bytes) -> tuple[int, dict]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        try:
            if method == "GET":
                return await self._dispatch_get(path)
            if method == "POST":
                return await self._dispatch_post(path, body)
            return 405, error_payload("method not allowed", method)
        except PayloadError as exc:
            return 400, error_payload("bad payload", str(exc))
        except json.JSONDecodeError as exc:
            return 400, error_payload("bad json", str(exc))
        except Exception as exc:  # defensive: never kill the connection loop
            return 500, error_payload("internal error", repr(exc))

    async def _dispatch_get(self, path: str) -> tuple[int, dict]:
        if path == "/health":
            payload = await self._call(lambda: {
                "status": "draining" if self._draining else "ok",
                "pending": self.session.pending,
                "now": self.session.now,
            })
            return 200, payload
        if path == "/stats":
            return 200, await self._call(self.session.stats_payload)
        if path.startswith("/records/"):
            request_id = path[len("/records/"):]
            record = await self._call(
                lambda: self.session.records.get(request_id))
            if record is None:
                return 404, error_payload("unknown record", request_id)
            return 200, record_to_payload(record)
        return 404, error_payload("unknown path", path)

    async def _dispatch_post(self, path: str, body: bytes) -> tuple[int, dict]:
        if path not in ("/serve", "/serve_batch", "/submit",
                        "/flush", "/drain"):
            return 404, error_payload("unknown path", path)
        if path == "/drain":
            await self.drain()
            return 200, {"status": "drained",
                         "pending": self.session.pending}
        if self._draining:
            return 503, error_payload("draining",
                                      "gateway is shutting down")
        if path == "/flush":
            processed = await self._call(self.session.run_pending)
            return 200, {"status": "flushed", "processed": processed}

        payload = json.loads(body.decode("utf-8")) if body else {}
        if path == "/serve_batch":
            return await self._serve_batch(payload)

        request = request_from_payload(payload)
        arrival = payload.get("gateway_arrival_s")
        if path == "/submit":
            status = await self._call(
                lambda: self.session.submit(request, arrival))
            return _STATUS[status], {"status": status,
                                     "request_id": request.request_id}

        # /serve: submit, then advance the session until completion fires.
        def serve():
            status = self.session.submit(request, arrival)
            if status != ACCEPTED:
                return status, None
            return status, self.session.run_until_complete(request.request_id)

        status, record = await self._call(serve)
        if record is None:
            return _STATUS[status], {"status": status,
                                     "request_id": request.request_id}
        return 200, {"status": status, "record": record_to_payload(record)}

    async def _serve_batch(self, payload: dict) -> tuple[int, dict]:
        if not isinstance(payload.get("requests"), list):
            raise PayloadError("serve_batch payload needs a 'requests' list")
        requests = [request_from_payload(p) for p in payload["requests"]]
        times = [p.get("gateway_arrival_s") for p in payload["requests"]]
        if any(t is None for t in times):
            times = None

        def serve_batch():
            statuses = self.session.submit_batch(requests, times)
            records = []
            for request, status in zip(requests, statuses):
                if status != ACCEPTED:
                    records.append(None)
                    continue
                records.append(
                    self.session.run_until_complete(request.request_id))
            return statuses, records

        statuses, records = await self._call(serve_batch)
        return 200, {"results": [
            {"status": status, "request_id": request.request_id,
             **({"record": record_to_payload(record)} if record else {})}
            for request, status, record in zip(requests, statuses, records)
        ]}
