"""Loopback gateway demo: network serving == simulation, bit for bit.

The serving-gateway demo (``docs/GATEWAY.md``): a seeded trace with a
mid-stream burst is served twice against identically seeded services —
in process through ``ClusterSimulator.run``, and over real loopback HTTP
through an :class:`AsyncGateway` (one client submitting each arrival,
then draining and reading ``/stats``).  The gateway's determinism
contract is that the two runs agree bit-exactly: every routing decision,
the shed timeline, the whole SLO report.  Along the way the demo
exercises the gateway's admission control — a free-tier tenant hits its
token-bucket limit (429) while the burst overflows queue depth (503).

Set ``REPRO_GATEWAY_SLO_OUT=<path>`` to also write the gateway-side SLO
report as JSON (the CI gateway-smoke job uploads it as an artifact).  Run:

    python examples/gateway_loopback.py
"""

import asyncio
import json
import os
from pathlib import Path

from repro import ICCacheConfig
from repro.core.config import ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    TenantRateLimiter,
    request_to_payload,
)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload import SyntheticDataset

SEED = 17
BANK = 80
N_REQUESTS = 200
MAX_QUEUE_DEPTH = 5


def build_service() -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False),
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def cluster_config(service: ICCacheService) -> ClusterConfig:
    return ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=2),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=MAX_QUEUE_DEPTH)


def trace(dataset: SyntheticDataset) -> list:
    """Seeded arrivals with a flash crowd in the middle (forces shedding)."""
    arrivals = []
    for i, request in enumerate(dataset.online_requests(N_REQUESTS)):
        if 80 <= i < 140:                       # burst: 100x arrival rate
            t = 80 * 0.05 + (i - 80) * 0.0005
        elif i >= 140:
            t = 80 * 0.05 + 60 * 0.0005 + (i - 140) * 0.05
        else:
            t = i * 0.05
        arrivals.append((round(t, 6), request))
    return arrivals


def decisions(records) -> list[tuple]:
    return [(r.request_id, r.model_name, round(r.quality, 12),
             round(r.finish_s, 9)) for r in records]


def run_simulator() -> tuple[list, dict]:
    """The in-process control: the batch path every benchmark uses."""
    service, dataset = build_service()
    sim = ClusterSimulator(cluster_config(service))
    report = sim.run(trace(dataset), service.pipeline.route_batch,
                     on_complete=service.pipeline.on_complete)
    return decisions(report.records), report.slo_report()


async def run_gateway() -> tuple[list, dict, dict]:
    """The same trace over loopback HTTP, plus a rate-limited free tier."""
    service, dataset = build_service()
    limiter = TenantRateLimiter(capacity=10_000, refill_per_s=1_000.0,
                                overrides={"free-tier": (2, 0.1)})
    session = GatewaySession(service, cluster_config(service),
                             rate_limiter=limiter)
    gateway = AsyncGateway(session)
    await gateway.start()
    try:
        async with GatewayClient("127.0.0.1", gateway.port) as client:
            health = await client.get("/health")
            print(f"gateway up on :{gateway.port} "
                  f"(status {health.payload['status']})")
            statuses = {"accepted": 0, "shed": 0, "rate_limited": 0}
            for t, request in trace(dataset):
                resp = await client.post(
                    "/submit", request_to_payload(request, t))
                statuses[resp.payload["status"]] += 1
            # Flush the backlog first so the probes below cannot interleave
            # with in-flight trace work (they would shift the RNG stream).
            await client.post("/flush")

            # The free tier: a 2-token bucket refuses the third burst call
            # (429) without consuming any pipeline state.
            free = dataset.online_requests(4)
            free_ids = {r.request_id for r in free}
            for request in free:
                request.metadata["tenant"] = "free-tier"
                resp = await client.post(
                    "/submit",
                    request_to_payload(request, session.now))
                statuses[resp.payload["status"]] += 1

            drained = await client.post("/drain")
            assert drained.status == 200
            stats = (await client.get("/stats")).payload
    finally:
        await gateway.shutdown()
    print(f"admissions: {statuses['accepted']} accepted, "
          f"{statuses['shed']} shed (503), "
          f"{statuses['rate_limited']} rate-limited (429)")
    assert statuses["rate_limited"] > 0, "free tier never hit its bucket"

    # Strip the free-tier extras so the comparison below is trace-vs-trace.
    records = [r for r in session.report.records
               if r.request_id not in free_ids]
    return decisions(records), session.report.slo_report(), stats


def main() -> None:
    sim_decisions, sim_slo = run_simulator()
    gw_decisions, gw_slo, stats = asyncio.run(run_gateway())

    # The determinism-equivalence verdict (docs/GATEWAY.md): the shared
    # 200-request trace is decision-for-decision identical, and the shed
    # timelines match exactly.  (The gateway run additionally served the
    # free-tier probes, so totals differ by design.)
    assert gw_decisions == sim_decisions, "gateway diverged from simulator"
    assert gw_slo["shed_timeline"] == sim_slo["shed_timeline"]
    assert gw_slo["n_shed"] == sim_slo["n_shed"]
    print(f"equivalence holds: {len(gw_decisions)} decisions bit-identical "
          f"over HTTP ({gw_slo['n_shed']} burst arrivals shed on both sides)")
    print(f"p50 latency {gw_slo['latency_s']['p50']:.3f}s, "
          f"p99 {gw_slo['latency_s']['p99']:.3f}s, "
          f"429s recorded: {gw_slo['n_rate_limited']}")
    print(f"gateway counters: {stats['gateway']['completed']} completed, "
          f"draining={stats['gateway']['draining']}")

    out = os.environ.get("REPRO_GATEWAY_SLO_OUT")
    if out:
        Path(out).write_text(json.dumps(gw_slo, indent=1) + "\n",
                             encoding="utf-8")
        print(f"wrote SLO report to {out}")


if __name__ == "__main__":
    main()
