"""Byte-level properties of the gateway's request framer.

The server frames requests out of whatever segments the socket delivers
(``repro.gateway.app._Connection.data_received`` over
``repro.gateway.api.frame_head``), so two things must hold whatever the
bytes are:

* **segmentation independence** — a stream of valid requests cut at
  arbitrary byte offsets (one byte at a time included; the uncut stream is
  the pipelined case) yields the same replies in the same order as the
  uncut stream, and the same final ``stats_payload()``;
* **hostile bytes** — a valid request mutated at the framing level
  (truncated; headers duplicated, reordered, oversized, 101 of them; a
  64 KiB + 1 line; ``content-length`` negative, huge, duplicated,
  non-numeric, too small, too large; a non-UTF-8 body, every JSON type as
  the body, a non-finite or non-numeric arrival stamp, NUL bytes), cut
  anywhere, ends in well-formed replies and either a close within the
  deadline or an idle connection; a fresh connection is then served; and
  when every reply was a refusal, counters, RNG streams and the snapshot
  digest are where they were.

Tiers: the properties drive the protocol object over an in-memory transport
(``QUICK``, tier-1); the same draws run over real loopback sockets as whole
gateway runs (``SCENARIO``) under the ``nightly`` profile only.  Four example
tests pin what no property reaches: the 413 path, back-pressure on a peer
that never reads, and the two halves of the 408 timer rule.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gateway.app as gateway_app
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewaySession,
    request_to_payload,
)
from repro.serving.cluster import ClusterConfig, ModelDeployment
from repro.workload import SyntheticDataset

from tests.conftest import session_fingerprint
from tests.strategies.settings import PROFILE, QUICK, SCENARIO

SEED = 31
BANK = 30
DEADLINE_S = 0.03        # _REQUEST_READ_TIMEOUT_S while the fuzz runs
STATUSES = {200, 400, 404, 405, 408, 413, 500, 503}

nightly_only = pytest.mark.skipif(
    PROFILE != "nightly",
    reason="socket-level fuzz is the SCENARIO tier of the nightly profile")


def build_session() -> GatewaySession:
    service = ICCacheService(
        ICCacheConfig(seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return GatewaySession(service, ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=2),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ]))


@functools.cache
def wire_payloads() -> tuple[dict, ...]:
    """A few online requests in wire form (ids are rewritten per use)."""
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED + 1)
    return tuple(request_to_payload(r) for r in dataset.online_requests(8))


def payload(request_id: str, pick: int = 0, **extra) -> dict:
    return {**wire_payloads()[pick % 8], "request_id": request_id, **extra}


def http_request(method: str, path: str, body: bytes | None = None,
                 eol: bytes = b"\r\n", headers: list[bytes] | None = None,
                 ) -> bytes:
    if headers is None:
        headers = [b"host: fuzz"]
        if body is not None:
            headers += [b"content-type: application/json",
                        b"content-length: %d" % len(body)]
    lines = [f"{method} {path} HTTP/1.1".encode("ascii"), *headers]
    return eol.join(lines) + eol + eol + (body or b"")


def valid_request(kind: str, request_id: str, eol: bytes = b"\r\n",
                  members: int = 2) -> bytes:
    if kind in ("health", "stats"):
        return http_request("GET", f"/{kind}", eol=eol)
    if kind == "flush":
        return http_request("POST", "/flush", eol=eol)
    if kind == "serve_batch":
        body = {"requests": [payload(f"{request_id}-{m}", m)
                             for m in range(members)]}
    else:
        body = payload(request_id)
    return http_request("POST", f"/{kind}",
                        json.dumps(body).encode("utf-8"), eol=eol)


def segments(raw: bytes, cuts) -> list[bytes]:
    """``raw`` cut at ``cuts`` (offsets, taken modulo its length), or into
    single bytes when ``cuts`` is ``"bytes"``."""
    if cuts == "bytes":
        return [raw[i:i + 1] for i in range(len(raw))]
    edges = sorted({c % (len(raw) + 1) for c in cuts} | {0, len(raw)})
    return [raw[a:b] for a, b in zip(edges, edges[1:])]


def parse_replies(raw: bytes) -> list[tuple[int, dict, dict]]:
    """Every reply in ``raw`` as ``(status, headers, payload)``, asserting
    on the way that each is well formed.  Written against the wire format,
    not against ``frame_head``: the oracle shares no code with the framer."""
    replies = []
    while raw:
        head, blank, rest = raw.partition(b"\r\n\r\n")
        assert blank, f"unterminated reply head: {raw[:80]!r}"
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        version, status, reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and int(status) in STATUSES and reason
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert headers["content-type"] == "application/json"
        assert headers["connection"] in ("keep-alive", "close")
        length = int(headers["content-length"])
        body, raw = rest[:length], rest[length:]
        assert len(body) == length, "reply body shorter than it says"
        replies.append((int(status), headers, json.loads(body)))
    for _, headers, _ in replies[:-1]:
        assert headers["connection"] == "keep-alive", \
            "a reply that announced a close was followed by another"
    return replies


def stats_text(session: GatewaySession) -> str:
    """``/stats`` as text: an empty report holds NaNs, which are unequal."""
    return json.dumps(session.stats_payload(), sort_keys=True)


class Wire:
    """The transport a connection writes to, kept in memory."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data: bytes) -> None:
        assert not self.closed, "written to after close"
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


async def deliver(gateway: AsyncGateway, pieces: list[bytes],
                  settle_s: float = 0.0) -> tuple[bytes, bool, bool]:
    """Feed ``pieces`` to a fresh in-memory connection; returns what it
    wrote, whether it closed, and whether it was left mid-request.  A
    connection left mid-request is given ``settle_s`` for its deadline."""
    wire = Wire()
    conn = gateway_app._Connection(gateway)
    conn.connection_made(wire)
    for piece in pieces:
        if wire.closed:
            break
        conn.data_received(piece)
    if settle_s and conn.deadline is not None:
        await asyncio.sleep(settle_s)
    stalled = conn.deadline is not None
    assert stalled == (bool(conn.buffer) and not wire.closed), \
        "the deadline is armed exactly while a request is incomplete"
    conn.connection_lost(None)
    assert conn.deadline is None
    return bytes(wire.written), wire.closed, stalled


async def deliver_over_socket(gateway: AsyncGateway, pieces: list[bytes],
                              patience_s: float = 4 * DEADLINE_S,
                              ) -> tuple[bytes, bool]:
    """The same over loopback: one write per piece, then read until the
    server closes — or, once it has had nothing to say for ``patience_s``
    (it sat out the deadline), half-close and read the rest.  Returns the
    bytes received and whether the server closed first."""
    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
    received = bytearray()
    try:
        for piece in pieces:
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0)
        server_closed = True
        try:
            while chunk := await asyncio.wait_for(reader.read(65536),
                                                  timeout=patience_s):
                received += chunk
        except asyncio.TimeoutError:
            server_closed = False
            writer.write_eof()
            received += await asyncio.wait_for(reader.read(), timeout=10)
    except (ConnectionResetError, BrokenPipeError):
        server_closed = True    # closed on us while we were still sending
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return bytes(received), server_closed


# -- (a) segmentation independence -------------------------------------------

KINDS = ("health", "stats", "serve", "submit", "serve_batch", "flush")

request_streams = st.lists(
    st.tuples(st.sampled_from(KINDS), st.sampled_from([b"\r\n", b"\n"]),
              st.integers(1, 3)),
    min_size=1, max_size=4)
cut_points = st.one_of(st.just("bytes"),
                       st.lists(st.integers(0, 1 << 20), max_size=12))


def stream_bytes(stream) -> bytes:
    return b"".join(valid_request(kind, f"s{i}", eol, members)
                    for i, (kind, eol, members) in enumerate(stream))


def serve_stream_in_memory(pieces: list[bytes]) -> tuple:
    async def run():
        session = build_session()
        outcome = await deliver(AsyncGateway(session), pieces)
        return outcome, stats_text(session)
    return asyncio.run(run())


@settings(**QUICK)
@given(stream=request_streams, cuts=cut_points)
def test_segmentation_independence(stream, cuts):
    raw = stream_bytes(stream)
    whole = serve_stream_in_memory([raw])
    (written, closed, stalled), _ = whole
    replies = parse_replies(written)
    assert [status for status, _, _ in replies] == [200] * len(stream)
    assert not closed and not stalled
    assert serve_stream_in_memory(segments(raw, cuts)) == whole


@nightly_only
@settings(**SCENARIO)
@given(stream=request_streams, cuts=cut_points)
def test_segmentation_independence_over_sockets(stream, cuts):
    raw = stream_bytes(stream)
    (written, _, _), stats = serve_stream_in_memory([raw])

    async def run():
        session = build_session()
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            # Every request is valid: no deadline to sit out.
            received, _ = await deliver_over_socket(
                gateway, segments(raw, cuts), patience_s=0.0)
            return received, stats_text(session)
        finally:
            await gateway.shutdown()

    assert asyncio.run(run()) == (written, stats)


# -- (b) hostile bytes ---------------------------------------------------------

JSON_BODIES = [b"null", b"true", b"12", b"1.5", b'"text"', b"[]", b"[1, 2]",
               b"{}", b'{"requests": 5}', b'{"requests": [1]}',
               b'{"requests": [null]}', b"NaN", b"Infinity", b"{", b""]
LENGTHS = [b"-1", b"-0", b"abc", b"1e3", b"", b"+5", b" 7 ", b"0x10", b"1_0",
           b"99999999999999999999", b"9" * 5000]
STAMPS = ["Infinity", "-Infinity", "NaN", '"soon"', "true", "[1]", "{}"]

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("duplicate-header"), st.integers(0, 8)),
    st.tuples(st.just("reorder-headers"), st.randoms(use_true_random=False)),
    st.tuples(st.just("oversize-header"), st.sampled_from([65_537, 70_000])),
    st.tuples(st.just("many-headers"), st.sampled_from([100, 101, 150])),
    st.tuples(st.just("long-request-line"), st.just(65_537)),
    st.tuples(st.just("content-length"), st.sampled_from(LENGTHS)),
    st.tuples(st.just("content-length-off-by"), st.integers(-40, 40)),
    st.tuples(st.just("second-content-length"),
              st.tuples(st.sampled_from(LENGTHS + [b"3"]), st.booleans())),
    st.tuples(st.just("non-utf8-body"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("json-body"), st.sampled_from(JSON_BODIES)),
    st.tuples(st.just("stamp"), st.sampled_from(STAMPS)),
    st.tuples(st.just("nul-bytes"),
              st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4)),
)


def mutated_request(kind: str, request_id: str, mutation) -> bytes:
    """A valid ``kind`` request with one framing-level fault put in."""
    name, arg = mutation
    valid = valid_request(kind, request_id)
    head, _, body = valid.partition(b"\r\n\r\n")
    request_line, *headers = head.split(b"\r\n")
    method, path = request_line.decode("ascii").split(" ")[:2]

    def rebuilt(new_headers=headers, new_body=body):
        return http_request(method, path, new_body, headers=new_headers)

    def with_length(value: bytes):
        return [h for h in headers if not h.startswith(b"content-length")] \
            + [b"content-length: " + value]

    if name == "truncate":
        return valid[:arg % len(valid)]
    if name == "duplicate-header":
        return rebuilt(headers + [headers[arg % len(headers)]])
    if name == "reorder-headers":
        shuffled = list(headers)
        arg.shuffle(shuffled)
        return rebuilt(shuffled)
    if name == "oversize-header":
        return rebuilt(headers + [b"x-junk: " + b"a" * arg])
    if name == "many-headers":
        return rebuilt(headers + [b"x-junk: a"] * (arg - len(headers)))
    if name == "long-request-line":
        return http_request(method, "/" + "a" * arg, body, headers=headers)
    if name == "content-length":
        return rebuilt(with_length(arg))
    if name == "content-length-off-by":
        return rebuilt(with_length(b"%d" % max(0, len(body) + arg)))
    if name == "second-content-length":
        value, first = arg
        extra = [b"content-length: " + value]
        return rebuilt(extra + headers if first else headers + extra)
    if name == "non-utf8-body":
        bad = b"\xff\xfe" + arg
        return rebuilt(with_length(b"%d" % len(bad)), bad)
    if name == "json-body":
        return rebuilt(with_length(b"%d" % len(arg)), arg)
    if name == "stamp":
        text = json.dumps(payload(request_id, gateway_arrival_s=0)) \
            .replace('"gateway_arrival_s": 0', f'"gateway_arrival_s": {arg}')
        if kind == "serve_batch":
            text = '{"requests": [%s]}' % text
        stamped = text.encode("utf-8")
        return rebuilt(with_length(b"%d" % len(stamped)), stamped)
    assert name == "nul-bytes"
    poisoned = bytearray(valid)
    for offset in arg:
        poisoned.insert(offset % len(valid), 0)
    return bytes(poisoned)


def check_hostile_outcome(kind: str, written: bytes, closed: bool,
                          idle: bool, before: tuple,
                          session: GatewaySession) -> None:
    replies = parse_replies(written)
    assert closed or idle, \
        "neither closed within the deadline nor back to idle"
    if replies and replies[-1][1]["connection"] == "close":
        assert closed
    refused = all(status >= 400 for status, _, _ in replies)
    if refused or kind in ("health", "stats"):
        assert session_fingerprint(session) == before, \
            "a refused request moved session state"


_fuzz_ids = itertools.count()


@pytest.fixture(scope="module")
def fuzz_session():
    return build_session()


@settings(**QUICK)
@given(kind=st.sampled_from(KINDS), mutation=mutations, cuts=cut_points)
def test_hostile_bytes_end_in_an_answer_or_a_close(kind, mutation, cuts,
                                                   fuzz_session):
    session = fuzz_session
    request_id = f"fuzz{next(_fuzz_ids)}"
    raw = mutated_request(kind, request_id, mutation)
    before = session_fingerprint(session)

    async def run():
        gateway = AsyncGateway(session)
        written, closed, stalled = await deliver(
            gateway, segments(raw, cuts), settle_s=4 * DEADLINE_S)
        check_hostile_outcome(kind, written, closed, not stalled, before,
                              session)
        later, _, _ = await deliver(gateway, [valid_request(
            "serve", f"{request_id}-later")])
        (status, _, reply), = parse_replies(later)
        assert status == 200 and reply["status"] == "accepted"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway_app, "_REQUEST_READ_TIMEOUT_S", DEADLINE_S)
        asyncio.run(run())


@nightly_only
@settings(**SCENARIO)
@given(kind=st.sampled_from(KINDS), mutation=mutations, cuts=cut_points)
def test_hostile_bytes_over_sockets(kind, mutation, cuts):
    raw = mutated_request(kind, "fuzz", mutation)

    async def run():
        session = build_session()
        before = session_fingerprint(session)
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            written, closed = await deliver_over_socket(
                gateway, segments(raw, cuts))
            # Over a socket "idle" is what a connection that outlived the
            # deadline was: it had no request in progress.
            check_hostile_outcome(kind, written, closed, not closed, before,
                                  session)
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                later = await client.post("/serve", payload("fuzz-later"))
                assert later.status == 200, later.payload
        finally:
            await gateway.shutdown()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway_app, "_REQUEST_READ_TIMEOUT_S", DEADLINE_S)
        asyncio.run(run())


# -- what no property reaches ----------------------------------------------------

async def _served_gateway(config: GatewayConfig | None = None):
    session = build_session()
    gateway = AsyncGateway(session, config)
    await gateway.start()
    return session, gateway


def test_oversized_body_is_413_and_session_untouched():
    async def scenario():
        session, gateway = await _served_gateway(
            GatewayConfig(max_body_bytes=2048))
        before = session_fingerprint(session)
        try:
            head = http_request("POST", "/serve", headers=[
                b"content-length: 2049"])
            # The body is refused by its announced size, before it arrives.
            received, closed = await deliver_over_socket(
                gateway, [head, b"x" * 100])
            after = session_fingerprint(session)
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                fits = await client.post("/serve", payload("fits"))
            return received, closed, before, after, fits
        finally:
            await gateway.shutdown()

    received, closed, before, after, fits = asyncio.run(scenario())
    (status, headers, reply), = parse_replies(received)
    assert status == 413 and closed
    assert headers["connection"] == "close"
    assert reply == {"error": "payload too large",
                     "detail": "limit is 2048 bytes"}
    assert after == before
    assert fits.status == 200       # a body under the limit is served


def test_peer_that_never_reads_stops_being_read_from():
    """Pipelined requests from a peer that never reads its replies fill the
    write buffer; the connection then stops reading (its buffers stay
    bounded) while other connections are served, and picks the backlog up
    when the peer finally reads."""
    n_requests = 1500
    request = http_request("GET", "/stats")

    async def scenario():
        session, gateway = await _served_gateway()
        loop = asyncio.get_running_loop()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        try:
            await loop.sock_connect(sock, ("127.0.0.1", gateway.port))
            await asyncio.sleep(0.01)
            conn, = gateway._connections
            conn.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            backlog = memoryview(request * n_requests)
            sent = 0
            for _ in range(2000):
                if conn.paused:
                    break
                try:
                    sent += sock.send(backlog[sent:sent + 65536])
                except BlockingIOError:
                    pass
                await asyncio.sleep(0.001)
            paused = conn.paused
            buffered = len(conn.buffer)
            unsent = conn.transport.get_write_buffer_size()
            async with GatewayClient("127.0.0.1", gateway.port) as other:
                health = await other.get("/health")

            # The peer starts reading: everything it sent gets its reply.
            received = bytearray()
            deadline = loop.time() + 30
            while loop.time() < deadline:
                if sent < len(backlog):
                    try:
                        sent += sock.send(backlog[sent:sent + 65536])
                    except BlockingIOError:
                        pass
                try:
                    received += sock.recv(1 << 20)
                except BlockingIOError:
                    await asyncio.sleep(0.001)
                if sent == len(backlog) and \
                        received.count(b"HTTP/1.1 200 OK") == n_requests:
                    break
            return paused, buffered, unsent, health, bytes(received), \
                conn.paused
        finally:
            sock.close()
            await gateway.shutdown()

    paused, buffered, unsent, health, received, still_paused = \
        asyncio.run(scenario())
    assert paused, "the connection never stopped reading"
    assert buffered <= 256 * 1024       # one read's worth, at most
    assert unsent <= 2 * 64 * 1024      # high-water mark plus one reply
    assert health.status == 200
    assert len(parse_replies(received)) == n_requests
    assert not still_paused


def test_whole_segment_requests_never_touch_the_timer_heap():
    async def scenario():
        _, gateway = await _served_gateway()
        loop = asyncio.get_running_loop()
        armed = []
        call_at = loop.call_at

        def counting_call_at(when, callback, *args, **kwargs):
            armed.append(callback)
            return call_at(when, callback, *args, **kwargs)

        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                loop.call_at = counting_call_at
                try:
                    for i in range(100):
                        reply = await client.post("/serve", payload(f"w{i}", i))
                        assert reply.status == 200
                finally:
                    del loop.call_at
            return armed
        finally:
            await gateway.shutdown()

    assert asyncio.run(scenario()) == []


def test_partial_request_completed_in_time_is_served_and_disarmed(monkeypatch):
    monkeypatch.setattr(gateway_app, "_REQUEST_READ_TIMEOUT_S", 0.2)
    raw = valid_request("serve", "halves")

    async def scenario():
        session, gateway = await _served_gateway()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            writer.write(raw[:len(raw) // 2])
            await writer.drain()
            await asyncio.sleep(0.05)
            conn, = gateway._connections
            armed = conn.deadline is not None
            writer.write(raw[len(raw) // 2:])
            await writer.drain()
            first = await asyncio.wait_for(reader.readuntil(b"}}"), timeout=10)
            disarmed = conn.deadline is None
            # Well past the first deadline the connection is still served.
            await asyncio.sleep(0.3)
            writer.write(valid_request("health", ""))
            second = await asyncio.wait_for(reader.readuntil(b"}"), timeout=10)
            writer.close()
            await writer.wait_closed()
            return armed, disarmed, first, second, session.accepted
        finally:
            await gateway.shutdown()

    armed, disarmed, first, second, accepted = asyncio.run(scenario())
    assert armed and disarmed
    (status, _, reply), = parse_replies(first)
    assert status == 200 and reply["record"]["request_id"] == "halves"
    (status, _, _), = parse_replies(second)
    assert status == 200
    assert accepted == 1
