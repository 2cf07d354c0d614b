"""Golden gateway ↔ simulator determinism equivalence (the PR-10 tentpole).

One seeded 500-request trace runs twice, against two *independently built*
but identically seeded services:

* in process, through :meth:`ClusterSimulator.run` — the batch path every
  benchmark uses; and
* over HTTP, through a loopback :class:`AsyncGateway` — one sequential
  client ``/submit``-ing each arrival with its trace timestamp, then
  ``/drain``-ing and reading every record back via ``/records/<id>``.

The two runs must agree **bit-exactly**: every routing decision, quality
score, and latency timestamp; the shed timeline; the full SLO report; and
the final service state (snapshot documents compared field for field —
examples, index layout, learned posteriors, RNG positions).  JSON floats
round-trip exactly (shortest repr), so "over HTTP" adds no tolerance.

The simulator side is additionally pinned against
``tests/golden/gateway_equivalence.json`` so CI catches *both* runs
drifting together.  Regenerate after an intentional behavior change with::

    PYTHONPATH=src python tests/test_gateway_equivalence.py --write

and review the golden diff like any other code change.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    request_to_payload,
)
from repro.persistence.snapshot import snapshot_example_count
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload import SyntheticDataset

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / \
    "gateway_equivalence.json"

SEED = 11
BANK = 80
N_REQUESTS = 500
MAX_QUEUE_DEPTH = 6


def _build() -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(
        ICCacheConfig(seed=SEED, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _cluster_config(service: ICCacheService) -> ClusterConfig:
    return ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=2),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=MAX_QUEUE_DEPTH)


def _trace(dataset: SyntheticDataset) -> list:
    """500 seeded arrivals with a mid-trace burst (exercises shedding)."""
    requests = dataset.online_requests(N_REQUESTS)
    arrivals = []
    for i, request in enumerate(requests):
        if 200 <= i < 300:                      # flash crowd: 100x rate
            t = 200 * 0.05 + (i - 200) * 0.0005
        elif i >= 300:
            t = 200 * 0.05 + 100 * 0.0005 + (i - 300) * 0.05
        else:
            t = i * 0.05
        arrivals.append((round(t, 6), request))
    return arrivals


def _decisions(records) -> list:
    return [[r.request_id, r.model_name, round(r.quality, 12), r.n_examples,
             round(r.arrival_s, 9), round(r.start_s, 9), round(r.finish_s, 9)]
            for r in records]


def _state_doc(service: ICCacheService) -> dict:
    """The service's full snapshot document (sidecar name normalized)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = service.save(Path(tmp) / "state.json")
        return json.loads(path.read_text(encoding="utf-8"))


def _state_digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_simulator() -> tuple[list, dict, dict]:
    """The in-process batch run: decisions, SLO report, state document."""
    service, dataset = _build()
    sim = ClusterSimulator(_cluster_config(service))
    report = sim.run(_trace(dataset), service.pipeline.route_batch,
                     on_complete=service.pipeline.on_complete)
    return _decisions(report.records), report.slo_report(), _state_doc(service)


def run_gateway() -> tuple[list, dict, dict, dict]:
    """The loopback HTTP run: decisions (read back over the wire, in the
    simulator run's completion order), SLO report, state doc, /stats."""
    async def scenario():
        service, dataset = _build()
        session = GatewaySession(service, _cluster_config(service))
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                for t, request in _trace(dataset):
                    resp = await client.post(
                        "/submit", request_to_payload(request, t))
                    assert resp.status in (200, 503), resp.payload
                drained = await client.post("/drain")
                assert drained.status == 200, drained.payload
                stats = (await client.get("/stats")).payload
                decisions = []
                for record in session.report.records:  # completion order
                    wire = await client.get(f"/records/{record.request_id}")
                    assert wire.status == 200
                    p = wire.payload
                    decisions.append([
                        p["request_id"], p["model_name"],
                        round(p["quality"], 12), p["n_examples"],
                        round(p["arrival_s"], 9), round(p["start_s"], 9),
                        round(p["finish_s"], 9)])
        finally:
            await gateway.shutdown()
        assert session.late_arrivals == 0, \
            "a sequential trace replay must never clamp an arrival"
        return decisions, session.report.slo_report(), \
            _state_doc(service), stats

    return asyncio.run(scenario())


def capture() -> dict:
    """The golden document: the simulator side of the equivalence."""
    decisions, slo, state = run_simulator()
    return {
        "n_requests": N_REQUESTS,
        "decisions": decisions,
        "slo": slo,
        "state_digest": _state_digest(state),
        "state_examples": snapshot_example_count(state["cache"]),
    }


@pytest.fixture(scope="module")
def sim_run():
    return run_simulator()

@pytest.fixture(scope="module")
def gateway_run():
    return run_gateway()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        "`PYTHONPATH=src python tests/test_gateway_equivalence.py --write`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_decisions_bit_identical(sim_run, gateway_run):
    sim_decisions, _, _ = sim_run
    gw_decisions, _, _, _ = gateway_run
    assert sim_decisions == gw_decisions


def test_slo_reports_bit_identical(sim_run, gateway_run):
    _, sim_slo, _ = sim_run
    _, gw_slo, _, stats = gateway_run
    assert sim_slo == gw_slo
    assert stats["slo"] == sim_slo          # and the /stats wire copy


def test_final_service_state_bit_identical(sim_run, gateway_run):
    _, _, sim_state = sim_run
    _, _, gw_state, _ = gateway_run
    assert sim_state == gw_state


def test_trace_actually_exercises_shedding(sim_run):
    _, slo, _ = sim_run
    assert slo["n_shed"] > 0, \
        "the burst is meant to overflow the queue cap; retune the trace"
    assert slo["n_served"] + slo["n_shed"] == N_REQUESTS


def test_simulator_side_matches_golden(sim_run, golden):
    decisions, slo, state = sim_run
    assert decisions == golden["decisions"], (
        "simulator decisions diverged from the pinned golden run; if "
        "intentional, regenerate tests/golden/gateway_equivalence.json"
    )
    assert slo == golden["slo"]
    assert _state_digest(state) == golden["state_digest"]
    assert snapshot_example_count(state["cache"]) \
        == golden["state_examples"] == 381


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_gateway_equivalence.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
