"""Batches seed their generators in vectorized passes, and nothing moves.

``repro.utils.rng.seed_words`` hashes many seeds into PCG64 seed words at
once; numpy's own ``SeedSequence`` is its oracle.  A micro-batch
(``decide_batch``), a ``seed_cache`` call and a replay tick prime the
generators they will draw from through it.  Twin services, one with every
priming hook stubbed to a no-op, must then agree on every outcome, table
column, decode position and journal byte.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.llm.model as model_module
import repro.pipeline.core as pipeline_core
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.embedding.embedder import LatentEmbedder
from repro.gateway import AsyncGateway, GatewayClient, GatewaySession, \
    request_to_payload
from repro.llm.zoo import get_model
from repro.persistence.wal import Checkpointer
from repro.pipeline import FaultInjectionMiddleware
from repro.serving.cluster import ClusterConfig, ModelDeployment
from repro.utils.rng import SEED_AHEAD_FROM, make_rng, rng_from_words, \
    seed_words
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import prime_difficulty
from tests.conftest import make_request
from tests.strategies import DETERMINISM

EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
SEED = 17
BANK = 150


# -- the kernel against numpy --------------------------------------------


def _assert_same_generator(seed: int, words: np.ndarray) -> None:
    reference = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert words.dtype == np.uint64 and words.tolist() == reference.tolist()
    primed, minted = rng_from_words(words), make_rng(seed)
    assert primed.bit_generator.state == minted.bit_generator.state
    assert primed.normal() == minted.normal()
    assert primed.lognormal(0.0, 0.08) == minted.lognormal(0.0, 0.08)
    assert primed.integers(0, 2**63 - 1) == minted.integers(0, 2**63 - 1)


@settings(**DETERMINISM)
@given(st.lists(st.one_of(st.sampled_from(EDGES),
                          st.integers(0, 2**64 - 1)), max_size=40))
def test_seed_words_match_numpy_row_by_row(seeds):
    words = seed_words(seeds)
    assert words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        _assert_same_generator(seed, row)


def test_the_edges_in_one_pass():
    for seed, row in zip(EDGES, seed_words(EDGES)):
        _assert_same_generator(seed, row)


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_refused_by_value(bad):
    with pytest.raises(ValueError, match=rf"seed {bad} is outside"):
        seed_words([5, bad])


# -- each owner's primed draws are the per-call ones ---------------------


def _refuse_per_call_mints(monkeypatch) -> None:
    """Any per-call mint by the simulator, the embedder or a request fails
    until ``monkeypatch.undo()``."""
    import repro.embedding.embedder as embedder_module
    import repro.workload.request as request_module

    def refuse(seed):
        raise AssertionError(f"minted {seed} per call")

    for module in (model_module, embedder_module, request_module):
        monkeypatch.setattr(module, "make_rng", refuse)


def test_a_primed_model_draws_what_a_fresh_one_draws(monkeypatch):
    """Duplicate ids are primed at consecutive positions, so every draw of
    a primed batch — the duplicate's second one included — takes held
    words and none mints; qualities and positions match a fresh twin."""
    requests = [make_request(request_id=f"p{i}", difficulty=i / 10)
                for i in range(6)]
    requests.append(requests[2])
    primed = get_model("gemma-2-27b")
    primed.prime(requests, draws=2)
    _refuse_per_call_mints(monkeypatch)
    drawn = [primed.sample_quality(r) for r in requests + requests]
    monkeypatch.undo()
    assert not primed._held
    fresh = get_model("gemma-2-27b")
    assert drawn == [fresh.sample_quality(r) for r in requests + requests]
    assert primed._decode_counts == fresh._decode_counts


def test_primed_embeddings_and_difficulties_are_the_per_call_ones(
        monkeypatch):
    requests = [make_request(request_id=f"d{i}", text=f"question {i}",
                             difficulty=i / 8) for i in range(8)]
    embedder = LatentEmbedder()
    embedder.prime([r.text for r in requests])
    prime_difficulty(requests)
    _refuse_per_call_mints(monkeypatch)
    vectors = [embedder.embed(r.text, r.latent) for r in requests]
    estimates = [r.observable_difficulty() for r in requests]
    monkeypatch.undo()
    again = LatentEmbedder()
    for request, vector, estimate in zip(requests, vectors, estimates):
        twin = dataclasses.replace(request, metadata={})
        assert again.embed(twin.text, twin.latent).tobytes() == \
            vector.tobytes()
        assert twin.observable_difficulty() == estimate


# -- twin services: primed and not ---------------------------------------


def _unprimed(service, monkeypatch) -> None:
    monkeypatch.setattr(pipeline_core, "prime_difficulty",
                        lambda requests: None)
    service.embedder.prime = lambda texts: None
    for model in service.models.values():
        model.prime = lambda requests, draws: None


def _count_passes(monkeypatch) -> list[int]:
    """Count the non-empty seeding passes every priming owner runs."""
    import repro.embedding.embedder as embedder_module
    import repro.workload.request as request_module

    passes = [0]

    def counted(seeds):
        words = seed_words(seeds)
        passes[0] += len(words) > 0
        return words

    for module in (model_module, embedder_module, request_module):
        monkeypatch.setattr(module, "seed_words", counted)
    return passes


def _twin(directory, primed: bool, monkeypatch) -> dict:
    """Seed a journaled, full cache, serve batches of 16, 1, 2 and
    ``SEED_AHEAD_FROM`` (one with a duplicate id, one with a failed route),
    tick once with replay."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=True)))
    if not primed:
        _unprimed(service, monkeypatch)
    passes = _count_passes(monkeypatch)
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    bank = dataset.example_bank_requests()[:BANK]
    for start in range(0, BANK, 50):
        service.seed_cache(bank[start:start + 50])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    requests = dataset.online_requests(120)
    doomed = {requests[75].request_id}
    service.pipeline.middlewares.insert(0, FaultInjectionMiddleware(
        fail_route=lambda ctx: ctx.request.request_id in doomed))
    batches = [requests[i:i + 16] for i in range(0, 64, 16)]
    batches += [[requests[64]], requests[65:67],
                requests[67:67 + SEED_AHEAD_FROM],
                requests[72:75] + [requests[72]] + requests[75:87]]
    batches += [requests[i:i + 16] for i in range(87, 120, 16)]
    outcomes = []
    for batch in batches:
        for outcome in service.serve_batch(batch, load=0.2):
            admitted = outcome.admitted_example
            outcomes.append((
                outcome.request.request_id, outcome.result.model_name,
                outcome.result.quality, outcome.result.output_tokens,
                outcome.bypassed, len(outcome.examples),
                admitted.example_id if admitted is not None else None))
    served = passes[0]
    service.clock.advance(1800.0)
    summary = service.run_maintenance(replay=True)
    checkpointer.detach()
    table = service.cache.table
    return {
        "outcomes": outcomes,
        "summary": summary,
        "columns": {name: table.col(name).tobytes() for name in table._cols},
        "decode_counts": {name: dict(m._decode_counts)
                          for name, m in service.models.items()},
        "bypasses": service.stats.bypasses,
        "passes": (served, passes[0] - served),
        "wal": checkpointer.wal_path.read_bytes(),
    }


def test_twin_services_agree_byte_for_byte(tmp_path, monkeypatch):
    primed = _twin(tmp_path / "primed", True, monkeypatch)
    plain = _twin(tmp_path / "plain", False, monkeypatch)
    assert primed["bypasses"] == 1 and primed["summary"]["replayed"] > 1
    assert min(primed["passes"]) > 0 and plain["passes"] == (0, 0)
    assert primed["outcomes"] == plain["outcomes"]
    assert primed["summary"] == plain["summary"]
    assert primed["decode_counts"] == plain["decode_counts"]
    assert primed["columns"].keys() == plain["columns"].keys()
    for name, data in primed["columns"].items():
        assert data == plain["columns"][name], name
    assert primed["wal"] == plain["wal"]


def test_gateway_serve_batch_through_the_cluster_path(monkeypatch):
    """``POST /serve_batch`` decides through ``pipeline.route_batch``: the
    primed and unprimed sessions return the same records."""
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    bank = dataset.example_bank_requests()[:60]
    online = dataset.online_requests(48)

    async def run(primed: bool):
        service = ICCacheService(ICCacheConfig(
            seed=SEED, manager=ManagerConfig(sanitize=False)))
        if not primed:
            _unprimed(service, monkeypatch)
        service.seed_cache(bank)
        passes = _count_passes(monkeypatch)
        session = GatewaySession(service, ClusterConfig(deployments=[
            ModelDeployment(service.models[service.small_name], replicas=2),
            ModelDeployment(service.models[service.large_name], replicas=1),
        ]))
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                results = []
                for start in range(0, 48, 12):
                    resp = await client.post("/serve_batch", {"requests": [
                        request_to_payload(r, None)
                        for r in online[start:start + 12]]})
                    assert resp.status == 200
                    results.append(resp.payload["results"])
            return results, {name: dict(m._decode_counts)
                             for name, m in service.models.items()}, \
                passes[0] > 0
        finally:
            await gateway.shutdown()

    primed, plain = asyncio.run(run(True)), asyncio.run(run(False))
    assert primed[2] and not plain[2]
    assert primed[:2] == plain[:2]


def test_a_batch_below_the_threshold_never_primes(monkeypatch):
    calls = []
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:40])
    monkeypatch.setattr(pipeline_core, "prime_difficulty", calls.append)
    service.embedder.prime = calls.append
    for model in service.models.values():
        model.prime = lambda requests, draws: calls.append(requests)
    requests = dataset.online_requests(SEED_AHEAD_FROM - 1)
    service.serve(requests[0])
    service.serve_batch(requests)
    service.seed_cache([make_request(request_id=f"s{i}")
                        for i in range(SEED_AHEAD_FROM - 1)])
    assert calls == []
