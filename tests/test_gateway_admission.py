"""Admission control at the gateway: queue-depth shedding and tenant limits.

Satellite coverage for ``docs/GATEWAY.md``: the token-bucket units, the
session-level 503 (shed → :class:`ShedEvent`) and 429 (token bucket →
:class:`RateLimitEvent`) paths, both counted in :meth:`slo_report`, the
guarantee that a rate-limited request consumes *no* pipeline state, and
the HTTP status mapping through a live loopback gateway.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math

import numpy as np
import pytest

import repro.gateway.app as gateway_app
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import (
    ACCEPTED,
    RATE_LIMITED,
    SHED,
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    PayloadError,
    TenantRateLimiter,
    TokenBucket,
    request_from_payload,
    request_to_payload,
)
from repro.serving.cluster import ClusterConfig, ModelDeployment
from repro.workload import SyntheticDataset

from tests.conftest import make_request, session_fingerprint

SEED = 23


def build_service(seed: int = SEED, bank: int = 40) -> ICCacheService:
    service = ICCacheService(
        ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:bank])
    return service


def cluster_config(service: ICCacheService,
                   max_queue_depth: int | None = None,
                   replicas_small: int = 2) -> ClusterConfig:
    return ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name],
                        replicas=replicas_small),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=max_queue_depth)


def stamped(stamp: str, batch: bool = False) -> bytes:
    """A valid request body whose ``gateway_arrival_s`` is the JSON text
    ``stamp`` (``Infinity`` and ``NaN`` are tokens Python's parser takes)."""
    text = json.dumps(request_to_payload(make_request("poison"), 7.0)) \
        .replace('"gateway_arrival_s": 7.0', f'"gateway_arrival_s": {stamp}')
    return ('{"requests": [%s]}' % text if batch else text).encode("utf-8")


def latent_as_list() -> bytes:
    payload = request_to_payload(make_request("poison"), 7.0)
    return json.dumps({**payload, "latent": [1.0] + [0.0] * 63}).encode()


def bad_latent(latent, stamp: float = 7.0, batch: bool = False) -> bytes:
    """A well-formed body whose packed latent the embedder cannot take
    (wrong length, NaN, infinite); in a batch, behind a good member."""
    poison = dataclasses.replace(make_request("poison"),
                                 latent=np.asarray(latent, dtype=float))
    payload = request_to_payload(poison, stamp)
    if batch:
        payload = {"requests": [
            request_to_payload(make_request("fine"), stamp), payload]}
    return json.dumps(payload).encode()


def unjournalable(field: str, value, batch: bool = False) -> bytes:
    """A well-formed body whose ``field`` the cache could not hash or
    journal: an integer outside int64, or a string holding a lone surrogate
    (``json.dumps`` writes it as the ``\\ud800`` escape); in a batch,
    behind a good member."""
    payload = {**request_to_payload(make_request("poison"), 7.0),
               field: value}
    if batch:
        payload = {"requests": [
            request_to_payload(make_request("fine"), 7.0), payload]}
    return json.dumps(payload).encode()


@pytest.mark.parametrize("field, value", [
    ("request_id", None), ("text", ["a"]), ("dataset", 7), ("task", 1),
    ("task", "poetry"), ("topic_id", 3.9), ("topic_id", "12"),
    ("topic_id", True), ("prompt_tokens", None), ("difficulty", "0.5"),
    ("difficulty", False), ("arrival_time", math.nan),
    ("arrival_time", math.inf), ("arrival_time", 10 ** 400),
    ("latent", "not base64!"), ("latent", "AAAA"), ("metadata", []),
    ("metadata", {"a": {"__ndarray__": "", "dtype": "<f8", "shape": [0]}}),
], ids=lambda v: repr(v)[:24])
def test_a_field_of_another_json_type_is_refused_naming_it(field, value):
    """Each kind's parse takes its own JSON type only: a string for text
    and ``task``, an integer that is not a bool, a finite number that is
    not a bool, base64 for a vector, an object for ``metadata`` — nothing
    is coerced (``null`` used to be the text ``"None"``, ``3.9`` the topic
    3, ``"0.5"`` a difficulty)."""
    payload = {**request_to_payload(make_request("typed"), 1.0),
               field: value}
    with pytest.raises(PayloadError, match=f"'{field}'"):
        request_from_payload(payload)


class TestTokenBucket:
    def test_starts_full_and_depletes(self):
        bucket = TokenBucket(capacity=2, refill_per_s=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)

    def test_refills_on_logical_time(self):
        bucket = TokenBucket(capacity=1, refill_per_s=0.5)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(1.0)   # only 0.5 tokens back
        assert bucket.try_acquire(3.0)       # full again (clamped)

    def test_refill_clamps_at_capacity(self):
        bucket = TokenBucket(capacity=3, refill_per_s=10.0)
        for _ in range(3):
            assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(capacity=1, refill_per_s=1.0)
        assert bucket.try_acquire(5.0)
        # An out-of-order stamp must not grant negative refill or raise.
        assert not bucket.try_acquire(4.0)
        assert bucket.try_acquire(6.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_s=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_s=-1.0)

    @pytest.mark.parametrize("capacity, refill", [
        (math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan), (5.0, math.inf)])
    def test_rejects_nan_and_infinite_shapes(self, capacity, refill):
        # NaN compares false both ways, so only a range check refuses it:
        # a NaN capacity would refuse every request and a NaN refill admit
        # past the capacity.
        with pytest.raises(ValueError, match="finite"):
            TokenBucket(capacity=capacity, refill_per_s=refill)


class TestTenantRateLimiter:
    @pytest.mark.parametrize("capacity, refill, overrides", [
        (0, 1.0, None),
        (math.nan, 1.0, None),
        (5, math.nan, None),
        (5, 1.0, {"gold": (-1, 1.0)}),
        (5, 1.0, {"gold": (10, math.inf)}),
    ])
    def test_refuses_bad_shapes_at_construction(self, capacity, refill,
                                                overrides):
        # Refused when the gateway is configured, not inside the first
        # admit() on a request's path.
        with pytest.raises(ValueError, match="override for 'gold'"
                           if overrides else "must be finite"):
            TenantRateLimiter(capacity, refill, overrides=overrides)

    def test_buckets_are_per_tenant(self):
        limiter = TenantRateLimiter(capacity=1, refill_per_s=0.0)
        assert limiter.admit("a", 0.0)
        assert limiter.admit("b", 0.0)       # b has its own bucket
        assert not limiter.admit("a", 0.0)
        assert limiter.tenants() == ["a", "b"]

    def test_overrides_give_tiered_plans(self):
        limiter = TenantRateLimiter(capacity=1, refill_per_s=0.0,
                                    overrides={"gold": (3.0, 0.0)})
        assert [limiter.admit("gold", 0.0) for _ in range(4)] == \
            [True, True, True, False]
        assert [limiter.admit("free", 0.0) for _ in range(2)] == [True, False]


class TestSessionAdmission:
    def test_queue_depth_shed_records_event_and_slo(self):
        service = build_service()
        session = GatewaySession(
            service, cluster_config(service, max_queue_depth=1,
                                    replicas_small=1))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
        statuses = [session.submit(r, 0.0)
                    for r in dataset.online_requests(30)]
        assert SHED in statuses, "burst at t=0 should overflow the queue cap"
        report = session.report.slo_report()
        assert report["n_shed"] == statuses.count(SHED)
        assert len(report["shed_timeline"]) == report["n_shed"]
        assert report["n_shed"] + session.accepted == len(statuses)

    def test_rate_limit_records_event_and_slo(self):
        service = build_service()
        limiter = TenantRateLimiter(capacity=2, refill_per_s=0.0)
        session = GatewaySession(service, cluster_config(service),
                                 rate_limiter=limiter)
        statuses = [session.submit(make_request(f"r{i}"), float(i))
                    for i in range(5)]
        assert statuses == [ACCEPTED, ACCEPTED,
                            RATE_LIMITED, RATE_LIMITED, RATE_LIMITED]
        report = session.report.slo_report()
        assert report["n_rate_limited"] == 3
        assert report["rate_limited_timeline"] == [
            [2.0, "default"], [3.0, "default"], [4.0, "default"]]

    def test_tenant_comes_from_request_metadata(self):
        service = build_service()
        limiter = TenantRateLimiter(capacity=1, refill_per_s=0.0)
        session = GatewaySession(service, cluster_config(service),
                                 rate_limiter=limiter)
        a1, a2 = make_request("a1"), make_request("a2")
        b1 = make_request("b1")
        a1.metadata["tenant"] = a2.metadata["tenant"] = "tenant-a"
        b1.metadata["tenant"] = "tenant-b"
        assert session.submit(a1, 0.0) == ACCEPTED
        assert session.submit(b1, 0.0) == ACCEPTED
        assert session.submit(a2, 0.0) == RATE_LIMITED
        events = session.report.rate_limited
        assert [(e.tenant, e.request_id) for e in events] == \
            [("tenant-a", "a2")]

    def test_rate_limited_request_leaves_no_pipeline_trace(self):
        """429 happens *before* routing: no RNG draws, no parked context,
        no stats movement — the pipeline never saw the request."""
        def run(submit_limited: bool):
            service = build_service()
            limiter = TenantRateLimiter(capacity=1, refill_per_s=0.0)
            session = GatewaySession(service, cluster_config(service),
                                     rate_limiter=limiter)
            assert session.submit(make_request("ok"), 0.0) == ACCEPTED
            if submit_limited:
                assert session.submit(make_request("blocked"), 0.0) \
                    == RATE_LIMITED
            session.run_pending()
            return service

        control = run(submit_limited=False)
        limited = run(submit_limited=True)
        assert not limited.pipeline._pending, "429 must not park a context"
        assert limited.stats.served == control.stats.served
        for name in limited.models:
            assert limited.router.pulls(name) == control.router.pulls(name)
        # The next decision draws the same RNG stream position.
        assert limited._rng.uniform() == control._rng.uniform()


    def test_non_finite_stamp_is_refused_before_anything_moves(self):
        service = build_service()
        session = GatewaySession(service, cluster_config(service))
        assert session.submit(make_request("a"), 5.0) == ACCEPTED
        before = session_fingerprint(session)
        for stamp in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                session.submit(make_request("b"), stamp)
            # The first member is late (a clamp the counter would record),
            # the second refused: the batch as a whole moves nothing.
            with pytest.raises(ValueError, match="finite"):
                session.submit_batch(
                    [make_request("c"), make_request("d")], [1.0, stamp])
        assert session_fingerprint(session) == before
        assert session.submit(make_request("e"), 6.0) == ACCEPTED


class TestGatewayHttpStatuses:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_shed_is_503_and_rate_limit_is_429(self):
        async def scenario():
            service = build_service()
            limiter = TenantRateLimiter(
                capacity=50, refill_per_s=0.0,
                overrides={"limited": (1.0, 0.0)})
            session = GatewaySession(
                service, cluster_config(service, max_queue_depth=1,
                                        replicas_small=1),
                rate_limiter=limiter)
            gateway = AsyncGateway(session)
            await gateway.start()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    # Tenant-limit probe first, while queues are empty —
                    # under congestion the second refusal would be a shed.
                    limited = make_request("limited-1")
                    limited.metadata["tenant"] = "limited"
                    first = await client.post(
                        "/submit", request_to_payload(limited, 0.0))
                    limited2 = make_request("limited-2")
                    limited2.metadata["tenant"] = "limited"
                    second = await client.post(
                        "/submit", request_to_payload(limited2, 0.0))
                    dataset = SyntheticDataset("ms_marco", scale=0.0005,
                                               seed=SEED)
                    codes = []
                    for request in dataset.online_requests(30):
                        resp = await client.post(
                            "/submit", request_to_payload(request, 0.0))
                        codes.append(resp.status)
                    stats = await client.get("/stats")
                    bad = await client.post("/submit", {"nope": 1})
                    missing = await client.get("/records/never-served")
                    return codes, first, second, stats, bad, missing
            finally:
                await gateway.shutdown()

        codes, first, second, stats, bad, missing = self._run(scenario())
        assert 200 in codes and 503 in codes
        assert (first.status, second.status) == (200, 429)
        slo = stats.payload["slo"]
        assert slo["n_shed"] == codes.count(503)
        assert slo["n_rate_limited"] == 1
        assert bad.status == 400 and "error" in bad.payload
        assert missing.status == 404

    def test_serve_is_serve_batch_of_one(self):
        """Twin sessions over one script, one fed ``POST /serve``, the other
        ``POST /serve_batch`` of one: a backlog of ``/submit`` acks makes
        queue-depth sheds, a tenant runs out of tokens, a stamp lands
        behind the watermark (clamped) and a non-finite one is refused.
        Every outcome and the final session fingerprint are equal."""
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
        online = dataset.online_requests(50)
        limited = [make_request(f"limited-{i}") for i in range(2)]
        for request in limited:
            request.metadata["tenant"] = "limited"
        script = ([(r, 0.0) for r in online[40:44]]
                  + [(limited[0], 0.5), (limited[1], 0.5),
                     (online[44], 0.25), (online[45], math.inf),
                     (online[46], None)])

        async def run(batched: bool):
            service = build_service()
            limiter = TenantRateLimiter(capacity=50, refill_per_s=0.0,
                                        overrides={"limited": (1.0, 0.0)})
            session = GatewaySession(
                service, cluster_config(service, max_queue_depth=1,
                                        replicas_small=1),
                rate_limiter=limiter)
            gateway = AsyncGateway(session)
            await gateway.start()
            outcomes = []
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    for request in online[:40]:
                        await client.post("/submit",
                                          request_to_payload(request, 0.0))
                    for request, stamp in script:
                        payload = request_to_payload(request, stamp)
                        if batched:
                            resp = await client.post(
                                "/serve_batch", {"requests": [payload]})
                            if resp.status == 200:
                                resp.payload.update(
                                    resp.payload["results"][0])
                        else:
                            resp = await client.post("/serve", payload)
                        outcomes.append((resp.payload.get("status"),
                                         resp.payload.get("record"),
                                         resp.payload.get("error")))
                return outcomes, session.late_arrivals, \
                    session_fingerprint(session)
            finally:
                await gateway.shutdown()

        served, late, fingerprint = asyncio.run(run(batched=False))
        assert (served, late, fingerprint) == asyncio.run(run(batched=True))
        statuses = [status for status, _, _ in served]
        assert {ACCEPTED, SHED, RATE_LIMITED} <= set(statuses)
        assert served[-2] == (None, None, "bad payload")     # the inf stamp
        assert late >= 1

    @pytest.mark.parametrize("sent,complaint", [
        (b"POST /serve HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
         b"bad content-length"),
        (b"POST /serve HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
         b"bad content-length"),
        (b"POST /serve HTTP/1.1\r\ncontent-length: 1e3\r\n\r\n",
         b"bad content-length"),
        # Lines past the 64 KiB limit, whole or still arriving.
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"line too long"),
        (b"GET /health HTTP/1.1\r\nx-junk: " + b"a" * 70_000 + b"\r\n\r\n",
         b"line too long"),
        # One header line past the cap, the same name every time: the
        # header dict never grows, the parser's loop still must end.
        (b"GET /health HTTP/1.1\r\n" + b"x-junk: a\r\n" * 101 + b"\r\n",
         b"too many header lines"),
    ], ids=["length-abc", "length-negative", "length-float",
            "long-request-line", "long-header-line", "too-many-headers"])
    def test_lost_framing_is_400_and_gateway_survives(self, sent, complaint):
        """A content-length that is not a non-negative integer, a line
        longer than the reader will buffer, or more header lines than the
        parser will read loses the request framing: the gateway answers 400,
        says ``connection: close`` and closes *that* connection; the session
        behind it carries on and counts exactly the accepted requests."""
        async def scenario():
            service = build_service()
            gateway = AsyncGateway(
                GatewaySession(service, cluster_config(service)))
            await gateway.start()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    before = await client.post(
                        "/serve", request_to_payload(make_request("a"), 0.0))
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", gateway.port)
                    writer.write(sent)
                    await writer.drain()
                    # read() to EOF: the reply, then the server's close.
                    raw = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    after = await client.post(
                        "/serve", request_to_payload(make_request("b"), 1.0))
                    stats = await client.get("/stats")
                    return raw, before, after, stats
            finally:
                await gateway.shutdown()

        raw, before, after, stats = self._run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"\r\nconnection: close" in head
        assert complaint in body
        assert (before.status, after.status) == (200, 200)
        assert stats.payload["gateway"]["accepted"] == 2
        assert stats.payload["gateway"]["completed"] == 2

    @pytest.mark.parametrize("path,body,error,complaint", [
        ("/serve", stamped("Infinity"), "bad payload", "gateway_arrival_s"),
        ("/submit", stamped("-Infinity"), "bad payload", "gateway_arrival_s"),
        ("/serve", stamped("NaN"), "bad payload", "gateway_arrival_s"),
        ("/serve", stamped('"soon"'), "bad payload", "gateway_arrival_s"),
        ("/submit", stamped("true"), "bad payload", "gateway_arrival_s"),
        ("/serve", stamped("1" + "0" * 400), "bad payload",
         "gateway_arrival_s"),
        ("/serve_batch", stamped("Infinity", batch=True), "bad payload",
         "gateway_arrival_s"),
        ("/serve", b"\xff\xfe{}", "bad json", "decode"),
        ("/serve_batch", b"\xff", "bad json", "decode"),
        ("/serve_batch", b"[1, 2]", "bad payload", "'requests' list"),
        ("/serve_batch", b'"text"', "bad payload", "'requests' list"),
        ("/serve_batch", b"12", "bad payload", "'requests' list"),
        ("/serve_batch", b"null", "bad payload", "'requests' list"),
        ("/serve", b"[1, 2]", "bad payload", "bad request payload"),
        ("/serve", latent_as_list(), "bad payload", "'latent'"),
        ("/serve", bad_latent(np.ones(3)), "bad payload", "'latent'"),
        ("/serve", bad_latent(np.ones(3), stamp=55.0), "bad payload",
         "'latent'"),
        ("/serve", bad_latent(np.full(64, np.nan)), "bad payload", "'latent'"),
        ("/submit", bad_latent(np.r_[np.inf, np.zeros(63)]), "bad payload",
         "'latent'"),
        ("/serve_batch", bad_latent(np.full(64, np.nan), batch=True),
         "bad payload", "'latent'"),
        ("/serve", unjournalable("topic_id", 2 ** 63), "bad payload",
         "'topic_id'"),
        ("/serve", unjournalable("prompt_tokens", -2 ** 63 - 1),
         "bad payload", "'prompt_tokens'"),
        ("/submit", unjournalable("target_output_tokens", 10 ** 30),
         "bad payload", "'target_output_tokens'"),
        ("/serve", unjournalable("prompt_tokens", -5), "bad payload",
         "'prompt_tokens'"),
        ("/submit", unjournalable("prompt_tokens", -2 ** 63), "bad payload",
         "'prompt_tokens'"),
        ("/serve", unjournalable("target_output_tokens", -5), "bad payload",
         "'target_output_tokens'"),
        ("/serve_batch", unjournalable("target_output_tokens", -1,
                                       batch=True), "bad payload",
         "'target_output_tokens'"),
        ("/serve", unjournalable("text", "hello \ud800 world"),
         "bad payload", "'text'"),
        ("/serve", unjournalable("request_id", "id-\udfff"), "bad payload",
         "'request_id'"),
        ("/submit", unjournalable("dataset", "\udc80"), "bad payload",
         "'dataset'"),
        ("/serve", unjournalable("metadata", {"note": "\ud83d"}),
         "bad payload", "'metadata'"),
        ("/serve_batch", unjournalable("text", "\ud800", batch=True),
         "bad payload", "'text'"),
        ("/serve", unjournalable("topic_id", "12"), "bad payload",
         "'topic_id'"),
        ("/submit", unjournalable("arrival_time", math.nan), "bad payload",
         "'arrival_time'"),
        ("/serve", unjournalable("metadata", {"__extarray__": {
            "offset": 0, "dtype": "<f8", "shape": [1]}}), "bad payload",
         "'metadata'"),
    ], ids=["stamp-inf", "stamp-neg-inf", "stamp-nan", "stamp-string",
            "stamp-bool", "stamp-int-past-double", "batch-stamp-inf",
            "serve-not-utf8",
            "batch-not-utf8", "batch-list", "batch-string", "batch-number",
            "batch-null", "serve-list", "latent-json-list", "latent-3-floats",
            "latent-3-floats-stamp-ahead", "latent-nan", "submit-latent-inf",
            "batch-one-nan-latent", "topic-past-int64",
            "prompt-tokens-below-int64", "submit-output-tokens-past-int64",
            "prompt-tokens-negative", "submit-prompt-tokens-int64-min",
            "output-tokens-negative", "batch-one-negative-output-tokens",
            "text-lone-surrogate", "request-id-lone-surrogate",
            "submit-dataset-lone-surrogate", "metadata-lone-surrogate",
            "batch-one-lone-surrogate", "topic-as-string",
            "submit-arrival-time-nan", "metadata-sidecar-reference"])
    def test_poisonous_payload_is_400_and_session_untouched(
            self, path, body, error, complaint):
        """A stamp that is not a finite number would park (``inf``) or
        poison (``nan``) the logical clock; a body that is not UTF-8, a
        batch that is not an object and a latent that is not packed bytes
        used to be 500s; a latent of the wrong length was a 500 after it
        had moved the watermark to its stamp, and a NaN one was served and
        cached; an integer past int64 was a 500 from the journal after the
        cache took the example, a lone surrogate a 500 from the embedder; a
        negative token count was stored, or recounted from the text.  Each
        is a 400 at the edge (one bad member refuses its whole
        batch): nothing reaches the session, the connection stays open,
        ``/health`` stays JSON."""
        async def scenario():
            service = build_service()
            session = GatewaySession(service, cluster_config(service))
            gateway = AsyncGateway(session)
            await gateway.start()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    await client.post(
                        "/serve", request_to_payload(make_request("a"), 5.0))
                    before = session_fingerprint(session)
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", gateway.port)
                    writer.write(
                        f"POST {path} HTTP/1.1\r\ncontent-length: "
                        f"{len(body)}\r\n\r\n".encode("ascii") + body
                        + b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n")
                    raw = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    after = session_fingerprint(session)
                    served = await client.post(
                        "/serve", request_to_payload(make_request("b"), 6.0))
                    return raw, before, after, served
            finally:
                await gateway.shutdown()

        raw, before, after, served = self._run(scenario())
        refusal, _, health = raw.partition(b"HTTP/1.1 200 OK")
        head, _, reply = refusal.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"\r\nconnection: keep-alive" in head
        reply = json.loads(reply)
        assert reply["error"] == error and complaint in reply["detail"]
        # parse_constant: a clock parked at Infinity is not JSON.
        health = json.loads(health.partition(b"\r\n\r\n")[2],
                            parse_constant=pytest.fail)
        assert health["now"] == before[0] and math.isfinite(before[0])
        assert after == before
        assert served.status == 200

    @pytest.mark.parametrize("sent", [
        b"POST /serve HTTP/1.1\r\ncontent-length: 10\r\n",
        b"POST /serve HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
    ], ids=["stalled-head", "stalled-body"])
    def test_stalled_request_is_408_and_gateway_survives(self, sent,
                                                         monkeypatch):
        """A request a segment left incomplete has a deadline: a client
        that stalls gets 408, ``connection: close`` and a close of *its*
        connection.  Connections that are merely idle between
        requests — one that never sent a byte, one with a served request
        behind it — are not timed, and nothing reaches the session."""
        monkeypatch.setattr(gateway_app, "_REQUEST_READ_TIMEOUT_S", 0.05)

        async def scenario():
            service = build_service()
            gateway = AsyncGateway(
                GatewaySession(service, cluster_config(service)))
            await gateway.start()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    before = await client.post(
                        "/serve", request_to_payload(make_request("a"), 0.0))
                    idle_reader, idle_writer = await asyncio.open_connection(
                        "127.0.0.1", gateway.port)
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", gateway.port)
                    writer.write(sent)
                    await writer.drain()
                    # read() to EOF: the 408, then the server's close.
                    raw = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    # Both idle connections have now sat out several
                    # deadlines; each must still be served.
                    await asyncio.sleep(0.15)
                    idle_writer.write(b"GET /health HTTP/1.1\r\n\r\n")
                    await idle_writer.drain()
                    idle_status = await asyncio.wait_for(
                        idle_reader.readline(), timeout=10)
                    idle_writer.close()
                    await idle_writer.wait_closed()
                    after = await client.post(
                        "/serve", request_to_payload(make_request("b"), 1.0))
                    stats = await client.get("/stats")
                    return raw, before, after, stats, idle_status
            finally:
                await gateway.shutdown()

        raw, before, after, stats, idle_status = self._run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 Request Timeout")
        assert b"\r\nconnection: close" in head
        assert b"request timeout" in body
        assert idle_status.startswith(b"HTTP/1.1 200 OK")
        assert (before.status, after.status) == (200, 200)
        assert stats.payload["gateway"]["accepted"] == 2
        assert stats.payload["gateway"]["completed"] == 2
