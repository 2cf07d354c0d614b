"""A request id is single-use at the gateway once the session accepted it.

Reusing an id that is in flight or completed is refused before anything
moves: ``submit`` returns ``"duplicate"``, ``POST /serve`` and
``POST /submit`` answer **409** with a reason, a ``/serve_batch`` member
carries the ``"duplicate"`` status.  Ids that were shed or rate-limited
never reached the cluster and may retry (``docs/GATEWAY.md``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway import (
    ACCEPTED,
    RATE_LIMITED,
    SHED,
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    TenantRateLimiter,
    request_to_payload,
)
from repro.serving.cluster import ClusterSimulator
from repro.workload import SyntheticDataset

from tests.conftest import make_request, session_fingerprint
from tests.test_gateway_admission import SEED, build_service, cluster_config

DUPLICATE = "duplicate"


def session(**cluster) -> GatewaySession:
    service = build_service()
    return GatewaySession(service, cluster_config(service, **cluster))


class TestSessionRefusesReusedIds:
    def test_completed_id_is_refused_before_anything_moves(self):
        s = session()
        assert s.submit(make_request("a"), 0.0) == ACCEPTED
        first = s.run_until_complete("a")
        before = session_fingerprint(s)
        assert s.submit(make_request("a"), 5.0) == DUPLICATE
        assert session_fingerprint(s) == before
        assert s.pending == 0
        assert s.records["a"] is first

    def test_in_flight_id_is_refused(self):
        s = session()
        assert s.submit(make_request("a"), 0.0) == ACCEPTED
        assert s.pending == 1
        assert s.submit(make_request("a"), 0.0) == DUPLICATE
        s.run_pending()
        assert s.pending == 0
        assert s.service.stats.served == 1

    def test_a_batch_may_not_carry_one_id_twice(self):
        s = session()
        requests = [make_request("a"), make_request("a"), make_request("b")]
        assert s.submit_batch(requests, [0.0] * 3) == \
            [ACCEPTED, DUPLICATE, ACCEPTED]
        s.run_pending()
        assert s.pending == 0
        assert s.service.stats.served == 2
        assert sorted(s.records) == ["a", "b"]

    def test_shed_id_may_retry(self):
        s = session(max_queue_depth=1, replicas_small=1)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
        requests = dataset.online_requests(30)
        statuses = [s.submit(r, 0.0) for r in requests]
        shed = requests[statuses.index(SHED)]
        s.run_pending()
        assert s.submit(shed, s.now + 1.0) == ACCEPTED
        assert s.run_until_complete(shed.request_id).request_id == \
            shed.request_id
        assert s.pending == 0

    def test_rate_limited_id_may_retry(self):
        service = build_service()
        s = GatewaySession(service, cluster_config(service),
                           rate_limiter=TenantRateLimiter(
                               capacity=1, refill_per_s=1.0))
        assert s.submit(make_request("a"), 0.0) == ACCEPTED
        assert s.submit(make_request("b"), 0.0) == RATE_LIMITED
        assert s.submit(make_request("b"), 5.0) == ACCEPTED
        s.run_pending()
        assert s.pending == 0
        assert sorted(s.records) == ["a", "b"]

    def test_a_duplicate_takes_no_rate_limit_token(self):
        service = build_service()
        s = GatewaySession(service, cluster_config(service),
                           rate_limiter=TenantRateLimiter(
                               capacity=2, refill_per_s=0.0))
        assert s.submit(make_request("a"), 0.0) == ACCEPTED
        assert s.submit(make_request("a"), 0.0) == DUPLICATE
        assert s.submit(make_request("b"), 0.0) == ACCEPTED
        assert not s.report.rate_limited


def test_the_pipeline_refuses_to_park_an_id_twice():
    service = build_service()
    route_batch = service.pipeline.route_batch
    sim = ClusterSimulator(cluster_config(service))
    route_batch([make_request("a")], sim)
    with pytest.raises(ValueError, match="'a' is already in flight"):
        route_batch([make_request("a")], sim)


def test_an_in_process_trace_may_reuse_only_a_completed_id():
    service = build_service()
    sim = ClusterSimulator(cluster_config(service))
    report = sim.run([(0.0, make_request("a")), (100.0, make_request("a"))],
                     service.pipeline.route_batch,
                     on_complete=service.pipeline.on_complete)
    assert [r.request_id for r in report.records] == ["a", "a"]
    assert service.stats.served == 2
    with pytest.raises(ValueError, match="'a' is already in flight"):
        sim.run([(200.0, make_request("a")), (200.0, make_request("a"))],
                service.pipeline.route_batch,
                on_complete=service.pipeline.on_complete)


def test_http_reuse_is_409_and_a_duplicate_batch_member():
    async def scenario():
        s = session()
        gateway = AsyncGateway(s)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                served = await client.post(
                    "/serve", request_to_payload(make_request("a"), 0.0))
                again = await client.post(
                    "/serve", request_to_payload(make_request("a"), 1.0))
                acked = await client.post(
                    "/submit", request_to_payload(make_request("a"), 1.0))
                batch = await client.post("/serve_batch", {"requests": [
                    request_to_payload(make_request(rid), 2.0)
                    for rid in ("b", "a", "b")]})
                record = await client.get("/records/a")
                health = await client.get("/health")
                return served, again, acked, batch, record, health
        finally:
            await gateway.shutdown()

    served, again, acked, batch, record, health = asyncio.run(scenario())
    assert served.status == 200
    for reply in (again, acked):
        assert reply.status == 409
        assert reply.payload["status"] == DUPLICATE
        assert reply.payload["request_id"] == "a"
        assert "already accepted" in reply.payload["reason"]
        assert "record" not in reply.payload
    assert batch.status == 200
    results = batch.payload["results"]
    assert [r["status"] for r in results] == [ACCEPTED, DUPLICATE, DUPLICATE]
    assert results[0]["record"]["request_id"] == "b"
    assert all("record" not in r for r in results[1:])
    assert record.payload == served.payload["record"]
    assert health.payload["pending"] == 0
