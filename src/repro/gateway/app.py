"""The asyncio serving gateway: HTTP front-end over one deterministic writer.

A hand-rolled HTTP/1.1 server on an :class:`asyncio.Protocol` (the
container ships no HTTP framework, and the protocol subset a JSON API needs
is small): keep-alive connections, ``content-length`` bodies, JSON in and
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
Lost framing (:func:`~repro.gateway.api.frame_head`'s limits) is a **400**,
a body over ``max_body_bytes`` a **413**, a request still incomplete
``_REQUEST_READ_TIMEOUT_S`` after a segment ended inside it a **408**; each
says ``connection: close`` and closes that connection only.  An idle
keep-alive connection is not timed, and a request that arrives whole never
touches the timer heap.

Concurrency model — the lock discipline, spelled out
----------------------------------------------------
There is no transport task and no queue.  A connection's ``data_received``
frames every complete request in its buffer and serves it *inside that
callback*: parse, call the session, write the reply.  Callbacks run to
completion on the loop's one thread, so session state (pipeline, cache, RNG
streams, the embedded simulator) has exactly one writer.  Consequences:

* determinism: concurrent clients are serialized into *one* well-defined
  arrival order — the order in which each request's last byte reaches the
  loop, which is the order the writer queue this replaced produced
  (``docs/GATEWAY.md``) — so a gateway run is always equivalent to some
  sequential trace through the same pipeline; and
* graceful drain needs no barrier: nothing is ever queued, so every request
  accepted before the drain runs has already been served.

Back-pressure is the transport's: a peer that stops reading its replies
fills the write buffer, ``pause_writing`` stops reading from it, and what it
already sent waits in the buffer for ``resume_writing``.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from http import HTTPStatus

from repro.gateway.api import (
    NotHttp,
    PayloadError,
    arrival_from_payload,
    error_payload,
    frame_head,
    record_to_payload,
    request_from_payload,
)
from repro.gateway.session import ACCEPTED, GatewaySession

#: admission outcome -> HTTP status for the ack/response.
_STATUS = {"accepted": 200, "shed": 503, "rate_limited": 429}

#: Seconds a request may stay incomplete once a segment has ended inside it;
#: a client that stalls longer is a 408 and a close, so it cannot park a
#: connection (and its buffer) without bound.
_REQUEST_READ_TIMEOUT_S = 10.0


@dataclass
class GatewayConfig:
    """Network shape of the gateway (the serving semantics live in the
    session).  ``port=0`` binds an ephemeral port — read
    :attr:`AsyncGateway.port` after :meth:`AsyncGateway.start`."""

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 * 1024 * 1024


class _Connection(asyncio.Protocol):
    """One client connection: buffer, frame, serve, reply (see module doc)."""

    def __init__(self, gateway: "AsyncGateway") -> None:
        self.gateway = gateway
        self.buffer = bytearray()
        self.transport: asyncio.Transport | None = None
        self.deadline: asyncio.TimerHandle | None = None
        self.paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.gateway._connections[self] = None

    def connection_lost(self, exc) -> None:
        self.gateway._connections.pop(self, None)
        self._disarm()

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()
        self.data_received(b"")     # requests buffered while paused

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        while buffer and not self.paused:
            try:
                framed = frame_head(buffer)
            except NotHttp:
                return self.close()
            except PayloadError as exc:  # framing lost: answer, close
                return self.reply(400, error_payload("bad request", str(exc)),
                                  close=True)
            if framed is None:
                return self._arm()
            (method, target, _version), headers, offset, length = framed
            limit = self.gateway.config.max_body_bytes
            if length > limit:
                return self.reply(413, error_payload(
                    "payload too large", f"limit is {limit} bytes"), close=True)
            end = offset + length
            if len(buffer) < end:
                return self._arm()
            body = buffer[offset:end]
            del buffer[:end]
            self._disarm()
            status, payload = self.gateway._dispatch(method.upper(), target,
                                                     body)
            close = headers.get("connection", "").lower() == "close"
            self.reply(status, payload, close)
            if close:
                return

    def _arm(self) -> None:
        """A segment ended inside a request: its deadline starts, once."""
        if self.deadline is None:
            self.deadline = asyncio.get_running_loop().call_later(
                _REQUEST_READ_TIMEOUT_S, self._stalled)

    def _stalled(self) -> None:
        self.reply(408, error_payload(
            "request timeout", "the rest of the request did not arrive "
            f"within {_REQUEST_READ_TIMEOUT_S:g} s"), close=True)

    def _disarm(self) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None

    def reply(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.transport.write((
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        ).encode("ascii") + body)
        if close:
            self.close()

    def close(self) -> None:
        self._disarm()
        self.buffer.clear()         # nothing more is served
        self.transport.close()      # once what is written has been sent


class AsyncGateway:
    """The HTTP server wrapping one :class:`GatewaySession` (see module doc)."""

    def __init__(self, session: GatewaySession,
                 config: GatewayConfig | None = None) -> None:
        self.session = session
        self.config = config or GatewayConfig()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        # Insertion-ordered (dict-as-set): close order stays deterministic.
        self._connections: dict[_Connection, None] = {}
        self._draining = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
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

    def drain(self) -> None:
        """Graceful drain: seal the session, keep answering reads.

        Flip the draining flag so new submissions get 503, then drain the
        session (event loop to idle, checkpoint).  Requests are served in
        the callback that delivers them, so none accepted earlier can still
        be waiting.  The socket stays open for ``/health``, ``/stats`` and
        ``/records``.  Idempotent: a second signal is a no-op.
        """
        if not self._draining:
            self._draining = True
            self.session.drain()

    async def shutdown(self) -> None:
        """Drain, then close the listening socket and every connection
        (each flushes the replies already written to it first)."""
        if self._stopped.is_set():
            return
        try:
            self.drain()
        finally:
            if self._server is not None:
                self._server.close()
            for conn in list(self._connections):
                conn.close()
            self._stopped.set()

    # -- routing -----------------------------------------------------------

    def _dispatch(self, method: str, target: str,
                  body: bytearray) -> tuple[int, dict]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        try:
            if method == "GET":
                return self._dispatch_get(path)
            if method == "POST":
                return self._dispatch_post(path, body)
            return 405, error_payload("method not allowed", method)
        except PayloadError as exc:
            return 400, error_payload("bad payload", str(exc))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, error_payload("bad json", str(exc))
        except Exception as exc:  # defensive: never kill the connection
            return 500, error_payload("internal error", repr(exc))

    def _dispatch_get(self, path: str) -> tuple[int, dict]:
        if path == "/health":
            return 200, {"status": "draining" if self._draining else "ok",
                         "pending": self.session.pending,
                         "now": self.session.now}
        if path == "/stats":
            return 200, self.session.stats_payload()
        if path.startswith("/records/"):
            request_id = path[len("/records/"):]
            record = self.session.records.get(request_id)
            if record is None:
                return 404, error_payload("unknown record", request_id)
            return 200, record_to_payload(record)
        return 404, error_payload("unknown path", path)

    def _dispatch_post(self, path: str, body: bytearray) -> tuple[int, dict]:
        if path not in ("/serve", "/serve_batch", "/submit",
                        "/flush", "/drain"):
            return 404, error_payload("unknown path", path)
        if path == "/drain":
            self.drain()
            return 200, {"status": "drained", "pending": self.session.pending}
        if self._draining:
            return 503, error_payload("draining", "gateway is shutting down")
        if path == "/flush":
            return 200, {"status": "flushed",
                         "processed": self.session.run_pending()}

        payload = json.loads(body.decode("utf-8")) if body else {}
        if path == "/serve_batch":
            return self._serve_batch(payload)

        request = request_from_payload(payload)
        status = self.session.submit(request, arrival_from_payload(payload))
        if path == "/serve" and status == ACCEPTED:
            # Advance the session until this request's completion fires.
            record = self.session.run_until_complete(request.request_id)
            return 200, {"status": status,
                         "record": record_to_payload(record)}
        return _STATUS[status], {"status": status,
                                 "request_id": request.request_id}

    def _serve_batch(self, payload) -> tuple[int, dict]:
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("requests"), list):
            raise PayloadError("serve_batch payload needs a 'requests' list")
        requests = [request_from_payload(p) for p in payload["requests"]]
        times = [arrival_from_payload(p) for p in payload["requests"]]
        if any(t is None for t in times):
            times = None
        statuses = self.session.submit_batch(requests, times)
        results = []
        for request, status in zip(requests, statuses):
            result = {"status": status, "request_id": request.request_id}
            if status == ACCEPTED:
                result["record"] = record_to_payload(
                    self.session.run_until_complete(request.request_id))
            results.append(result)
        return 200, {"results": results}
