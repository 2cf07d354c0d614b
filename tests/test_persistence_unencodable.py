"""A record the journal or the snapshot cannot store leaves the cache as
it found it.

``ExampleCache.add`` runs ``check_record`` (the one check
``repro.workload.request.RECORD`` derives) before it journals or mutates:
an integer outside int64, a negative token count, a string that is not
UTF-8 text, metadata holding a key the snapshot reads as an array, or a
latent of another shape than the pool's raises ``ValueError`` naming the
field, with the cache, its
index and ``wal.bin`` untouched, so a recovered service holds exactly the
live cache.  The group still closes after the mutation, so a compaction an
ungrouped add triggers snapshots the example.  The gateway refuses such
fields with a 400 before the session moves (``docs/GATEWAY.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.example import Example
from repro.core.service import ICCacheService
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    request_to_payload,
)
from repro.persistence import Checkpointer
from repro.workload import SyntheticDataset
from tests.conftest import make_request
from tests.test_gateway_admission import cluster_config

SEED = 31
BANK = 200

#: Request fields the cache refuses: what the journal cannot encode, what
#: recovery would read back as something else, and what the snapshot
#: cannot store beside the pool.
UNENCODABLE = [
    pytest.param("topic_id", 2 ** 63, id="topic-past-int64"),
    pytest.param("target_output_tokens", -2 ** 63 - 1,
                 id="output-tokens-below-int64"),
    # A token count is a count: recovery would give back another one.
    pytest.param("prompt_tokens", -5, id="prompt-tokens-negative"),
    pytest.param("target_output_tokens", -5, id="output-tokens-negative"),
    pytest.param("request_id", "req-\ud800", id="request-id-lone-surrogate"),
    pytest.param("metadata", {"__extarray__": {
        "offset": 0, "dtype": "<f8", "shape": [1]}},
        id="metadata-sidecar-reference"),
    pytest.param("metadata", {"note": [{
        "__ndarray__": "", "dtype": "<f8", "shape": [0]}]},
        id="metadata-nested-array-record"),
    pytest.param("metadata", {"ids": {1, 2}}, id="metadata-not-json"),
    # Stored as a list, or under the key "1": not given back as cached.
    pytest.param("metadata", {"pair": (1, 2)}, id="metadata-tuple"),
    pytest.param("metadata", {1: "one"}, id="metadata-key-not-text"),
    pytest.param("latent", np.ones(3), id="latent-narrower-than-the-pool"),
    pytest.param("latent", np.ones((64, 1)), id="latent-not-1d"),
]


def _journaled(tmp_path) -> tuple[ICCacheService, Checkpointer]:
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.002, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    checkpointer = Checkpointer(service, tmp_path / "ckpt")
    checkpointer.checkpoint()
    return service, checkpointer


def _example(example_id: str, direction: int, **request_fields) -> Example:
    latent = np.zeros(64)
    latent[direction] = 1.0
    request = dataclasses.replace(
        make_request(f"req-{example_id}", topic_latent=latent),
        **request_fields)
    return Example(example_id, request, "a response", latent, quality=0.7,
                   source_model="gemma-2-27b", source_cost=1.0)


def _ids(service: ICCacheService) -> list[str]:
    return [example.example_id for example in service.cache]


@pytest.mark.parametrize("field, value", UNENCODABLE)
def test_an_unencodable_add_moves_neither_cache_nor_journal(
        tmp_path, field, value):
    service, checkpointer = _journaled(tmp_path)
    before, journal = _ids(service), checkpointer.wal_path.read_bytes()
    bad = _example("bad", 3, **{field: value})
    with pytest.raises(ValueError, match=f"'{field}'"):
        service.cache.add(bad)
    assert _ids(service) == before and "bad" not in service.cache
    assert checkpointer.wal_path.read_bytes() == journal
    service.cache.add(_example("good", 3))
    assert _ids(Checkpointer.recover(checkpointer.directory)) == \
        _ids(service) == before + ["good"]


def test_both_recoveries_give_back_what_the_cache_took(tmp_path):
    """A request rebound after it was built, past what its constructor
    takes (a ``difficulty`` of 2, ``prompt_tokens`` of 0), is cached and
    journaled as it is; WAL recovery gave it back through that constructor,
    which refused it (the service did not start) or recounted it, while a
    snapshot restore gave it back as stored."""
    service, checkpointer = _journaled(tmp_path)
    bad = _example("rebound", 3)
    bad.request.difficulty, bad.request.prompt_tokens = 2.0, 0
    service.cache.add(bad)
    from_journal = Checkpointer.recover(checkpointer.directory)
    checkpointer.checkpoint()
    from_snapshot = Checkpointer.recover(checkpointer.directory)
    for service in (from_journal, from_snapshot):
        request = service.cache.get("rebound").request
        assert (request.difficulty, request.prompt_tokens) == (2.0, 0)


def test_an_admission_that_cannot_be_journaled_is_not_cached(tmp_path):
    """Through the manager's group: the example is not cached, and what the
    group journals (the counters the attempt moved) recovers to the live
    service."""
    service, checkpointer = _journaled(tmp_path)
    request = dataclasses.replace(
        make_request("fresh", topic_latent=np.eye(64)[5]), topic_id=2 ** 63)
    result = service.models[service.large_name].generate(make_request())
    before = _ids(service)
    with pytest.raises(ValueError, match="'topic_id'"):
        service.manager.admit(request, result, np.eye(64)[5], 1.0)
    assert _ids(service) == before
    recovered = Checkpointer.recover(checkpointer.directory)
    assert _ids(recovered) == before
    assert recovered.manager._next_id == service.manager._next_id


def test_an_ungrouped_add_compacts_after_its_mutation(tmp_path):
    """The record goes out before the mutation, but the compaction it
    triggers waits for the group to close: the snapshot holds the
    example, and the journal it truncated is not needed to recover it."""
    service, checkpointer = _journaled(tmp_path)
    checkpointer.compact_after_bytes = 0
    service.cache.add(_example("late", 7))
    assert checkpointer.compactions == 1
    assert checkpointer.wal_path.read_bytes() == b""
    assert "late" in _ids(Checkpointer.recover(checkpointer.directory))


@pytest.mark.filterwarnings("ignore:.*response-generating admissions")
@pytest.mark.parametrize("field, value", [
    pytest.param("topic_id", 2 ** 63, id="topic-past-int64"),
    pytest.param("metadata", {"__extarray__": {
        "offset": 0, "dtype": "<f8", "shape": [1]}},
        id="metadata-sidecar-reference"),
])
def test_the_gateway_refuses_an_unjournalable_request_and_recovers_live(
        tmp_path, field, value):
    """The probe: a journaled service behind a loopback gateway, one POST
    whose ``topic_id`` is past int64 (a 500 whose example stayed in the
    live cache only) or whose metadata holds a sidecar reference (a
    journal and a snapshot no recovery could read), then a good one;
    recovery holds exactly the live cache."""
    service, checkpointer = _journaled(tmp_path)
    session = GatewaySession(service, cluster_config(service))

    async def scenario():
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                bad = {**request_to_payload(make_request("bad"), 1.0),
                       field: value}
                refused = await client.post("/serve", bad)
                served = await client.post("/serve", request_to_payload(
                    make_request("fine", text="a fresh question"), 2.0))
                return refused, served
        finally:
            await gateway.shutdown()

    refused, served = asyncio.run(scenario())
    assert refused.status == 400 and f"'{field}'" in refused.payload["detail"]
    assert served.status == 200
    assert len(service.cache) >= BANK
    assert _ids(Checkpointer.recover(checkpointer.directory)) == \
        _ids(service)
    checkpointer.checkpoint()
    assert _ids(Checkpointer.recover(checkpointer.directory)) == \
        _ids(service)
