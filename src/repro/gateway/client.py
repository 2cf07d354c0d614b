"""A minimal asyncio JSON client for the serving gateway.

One keep-alive HTTP/1.1 connection per client, requests issued strictly
in order on it — which is exactly what the determinism-equivalence
harness needs: a trace replayed by one ``GatewayClient`` reaches the
gateway in trace order, so the loopback run *is* the batch run
(``tests/test_gateway_equivalence.py``).  Concurrency tests open one
client per simulated tenant instead.

The transport is an :class:`asyncio.Protocol` that frames each reply with
the server's own :func:`~repro.gateway.api.frame_head` and settles the one
future the request in flight awaits: one send and one future per request.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway.api import frame_head


class GatewayResponse:
    """Status code + parsed JSON body of one gateway reply."""

    __slots__ = ("status", "payload")

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GatewayResponse({self.status}, {self.payload!r})"


class _ReplyReader(asyncio.Protocol):
    """Frames each reply off the connection and settles ``waiter`` with it."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.waiter: asyncio.Future | None = None
        self.closed = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        try:
            framed = frame_head(buffer)
            if framed is None or len(buffer) < framed[2] + framed[3]:
                return
            (_version, status, _reason), _headers, offset, length = framed
            body = buffer[offset:offset + length]
            reply = GatewayResponse(int(status),
                                    json.loads(body) if body else {})
        except ValueError as exc:       # not a reply this client can read
            return self._settle(exc)
        del buffer[:offset + length]
        self._settle(reply)

    def connection_lost(self, exc) -> None:
        self.closed.set_result(None)
        self._settle(ConnectionError("gateway closed the connection"))

    def _settle(self, outcome) -> None:
        waiter, self.waiter = self.waiter, None
        if waiter is not None and not waiter.done():
            if isinstance(outcome, Exception):
                waiter.set_exception(outcome)
            else:
                waiter.set_result(outcome)


class GatewayClient:
    """Sequential JSON-over-HTTP client on one persistent connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._transport: asyncio.Transport | None = None
        self._reader: _ReplyReader | None = None

    async def connect(self) -> "GatewayClient":
        loop = asyncio.get_running_loop()
        self._transport, self._reader = await loop.create_connection(
            _ReplyReader, self.host, self.port)
        return self

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            await self._reader.closed
            self._transport = self._reader = None

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- verbs -------------------------------------------------------------

    async def get(self, path: str) -> GatewayResponse:
        return await self._request("GET", path, None)

    async def post(self, path: str, payload: dict | None = None,
                   ) -> GatewayResponse:
        return await self._request("POST", path, payload or {})

    # -- plumbing ----------------------------------------------------------

    async def _request(self, method: str, path: str,
                       payload: dict | None) -> GatewayResponse:
        if self._transport is None:
            raise RuntimeError("client is not connected; call connect()")
        if self._transport.is_closing():
            raise ConnectionError("gateway closed the connection")
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"host: {self.host}:{self.port}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        waiter = asyncio.get_running_loop().create_future()
        self._reader.waiter = waiter
        self._transport.write(head + body)
        return await waiter
