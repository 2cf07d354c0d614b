"""Concurrency properties of the gateway's single-writer discipline.

Hypothesis drives a small fleet of async clients against one loopback
gateway — blocking ``/serve``, micro-batched ``/serve_batch``, and
fire-and-forget ``/submit`` interleaved arbitrarily — and checks the
invariants the writer-task serialization must uphold no matter how the
asyncio scheduler interleaves the clients:

* **response conservation** — every submission gets exactly one verdict,
  and ``accepted + shed + rate_limited == submitted``; after a flush,
  every accepted request has exactly one completion record;
* **monotonic serving order** — the admission counter equals the accepted
  count, completion records come out in nondecreasing finish-time order,
  and the session watermark never runs backwards;
* **cache byte accounting** — the O(1) ``total_bytes`` running counter
  still reconciles with a full recount after arbitrary interleaving
  (admissions mutate the cache from completion callbacks, so a lost update
  here would be exactly the kind of bug concurrency introduces).

Tier: SCENARIO (each example is a whole gateway run); profiles scale the
example count via ``HYPOTHESIS_PROFILE`` (``tests/strategies/settings.py``).
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    TenantRateLimiter,
    request_to_payload,
)
from repro.serving.cluster import ClusterConfig, ModelDeployment
from repro.workload import SyntheticDataset

from tests.strategies.settings import SCENARIO
from tests.strategies.workload import gateway_workloads

BANK = 30


def _build_session(seed: int) -> GatewaySession:
    service = ICCacheService(
        ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    config = ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=2),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=3)
    limiter = TenantRateLimiter(capacity=8, refill_per_s=1.0)
    return GatewaySession(service, config, rate_limiter=limiter)


async def _run_plan(plan: dict) -> tuple[GatewaySession, dict]:
    """Execute the drawn client fleet; returns (session, tallies)."""
    seed = plan["seed"] % (2**31)
    session = _build_session(seed)
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed + 1)
    n_needed = sum(batch for client in plan["clients"]
                   for _, batch in client["ops"])
    pool = iter(dataset.online_requests(n_needed))
    tally = {"submitted": 0, "accepted": 0, "shed": 0, "rate_limited": 0,
             "responses": 0}

    gateway = AsyncGateway(session)
    await gateway.start()

    def count(status: str) -> None:
        tally["responses"] += 1
        tally["submitted"] += 1
        tally[status] += 1

    async def run_client(spec: dict) -> None:
        async with GatewayClient("127.0.0.1", gateway.port) as client:
            for kind, batch in spec["ops"]:
                if kind == "serve_batch":
                    requests = [next(pool) for _ in range(batch)]
                    for request in requests:
                        request.metadata["tenant"] = spec["tenant"]
                    resp = await client.post("/serve_batch", {
                        "requests": [request_to_payload(r)
                                     for r in requests]})
                    assert resp.status == 200, resp.payload
                    assert len(resp.payload["results"]) == len(requests)
                    for result in resp.payload["results"]:
                        count(result["status"])
                else:
                    request = next(pool)
                    request.metadata["tenant"] = spec["tenant"]
                    resp = await client.post(
                        f"/{kind}", request_to_payload(request))
                    assert resp.status in (200, 429, 503), resp.payload
                    count(resp.payload["status"])

    try:
        await asyncio.gather(*(run_client(c) for c in plan["clients"]))
        async with GatewayClient("127.0.0.1", gateway.port) as client:
            flush = await client.post("/flush")
            assert flush.status == 200
    finally:
        await gateway.shutdown()
    return session, tally


@settings(**SCENARIO)
@given(plan=gateway_workloads())
def test_gateway_concurrency_invariants(plan: dict):
    session, tally = asyncio.run(_run_plan(plan))

    # Response conservation: one verdict per submission, verdicts total up.
    assert tally["responses"] == tally["submitted"]
    assert tally["accepted"] + tally["shed"] + tally["rate_limited"] \
        == tally["submitted"]

    # Every accepted request completed exactly once after the flush.
    assert session.accepted == tally["accepted"]
    assert len(session.records) == tally["accepted"]
    assert session.pending == 0
    report = session.report
    assert len(report.records) == tally["accepted"]
    assert len(report.shed) == tally["shed"]
    assert len(report.rate_limited) == tally["rate_limited"]
    assert len({r.request_id for r in report.records}) == len(report.records)

    # Monotonic serving order: completions in nondecreasing finish time,
    # and the watermark sits at (or past) the last completion.
    finishes = [r.finish_s for r in report.records]
    assert finishes == sorted(finishes)
    if finishes:
        assert session.now >= finishes[-1]

    # Cache byte accounting survives arbitrary interleaving: the running
    # counter reconciles against a full recount.
    cache = session.service.cache
    counted = cache.total_bytes
    assert counted == sum(example.plaintext_bytes for example in cache)
    assert counted >= 0
