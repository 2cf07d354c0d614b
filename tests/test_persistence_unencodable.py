"""A record the journal cannot encode leaves the cache as it found it.

``ExampleCache.add`` / ``overwrite`` journal *before* they mutate, inside
the journal's group: an integer outside int64, or a string that is not
UTF-8 text, raises from the encoder with the cache, its index and
``wal.bin`` untouched, so a recovered service holds exactly the live
cache.  The group still closes after the mutation, so a compaction an
ungrouped add triggers snapshots the example.  The gateway refuses such
fields with a 400 before the session moves (``docs/GATEWAY.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct

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

#: Request fields the journal cannot encode, and what its encoder raises.
UNENCODABLE = [
    pytest.param("topic_id", 2 ** 63, struct.error, id="topic-past-int64"),
    pytest.param("target_output_tokens", -2 ** 63 - 1, struct.error,
                 id="output-tokens-below-int64"),
    pytest.param("request_id", "req-\ud800", UnicodeEncodeError,
                 id="request-id-lone-surrogate"),
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


@pytest.mark.parametrize("field, value, raised", UNENCODABLE)
def test_an_unencodable_add_moves_neither_cache_nor_journal(
        tmp_path, field, value, raised):
    service, checkpointer = _journaled(tmp_path)
    before, journal = _ids(service), checkpointer.wal_path.read_bytes()
    bad = _example("bad", 3, **{field: value})
    with pytest.raises(raised):
        service.cache.add(bad)
    assert _ids(service) == before and "bad" not in service.cache
    assert checkpointer.wal_path.read_bytes() == journal
    service.cache.add(_example("good", 3))
    assert _ids(Checkpointer.recover(checkpointer.directory)) == \
        _ids(service) == before + ["good"]


@pytest.mark.parametrize("field, value, raised", UNENCODABLE)
def test_an_unencodable_overwrite_keeps_the_cached_example(
        tmp_path, field, value, raised):
    service, checkpointer = _journaled(tmp_path)
    cached = next(iter(service.cache))
    journal = checkpointer.wal_path.read_bytes()
    replacement = cached.detached_copy()
    replacement.request = dataclasses.replace(cached.request,
                                              **{field: value})
    with pytest.raises(raised):
        service.cache.overwrite(replacement)
    assert service.cache.get(cached.example_id) is cached
    assert checkpointer.wal_path.read_bytes() == journal
    recovered = Checkpointer.recover(checkpointer.directory)
    assert recovered.cache.get(cached.example_id).request.text == \
        cached.request.text
    assert _ids(recovered) == _ids(service)


def test_an_admission_that_cannot_be_journaled_is_not_cached(tmp_path):
    """Through the manager's group: the example is not cached, and what the
    group journals (the counters the attempt moved) recovers to the live
    service."""
    service, checkpointer = _journaled(tmp_path)
    request = dataclasses.replace(
        make_request("fresh", topic_latent=np.eye(64)[5]), topic_id=2 ** 63)
    result = service.models[service.large_name].generate(make_request())
    before = _ids(service)
    with pytest.raises(struct.error):
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
def test_the_gateway_refuses_an_unjournalable_request_and_recovers_live(
        tmp_path):
    """The probe: a journaled service behind a loopback gateway, one POST
    whose ``topic_id`` is past int64 (a 500 whose example stayed in the
    live cache only), then a good one; recovery holds exactly the live
    cache."""
    service, checkpointer = _journaled(tmp_path)
    session = GatewaySession(service, cluster_config(service))

    async def scenario():
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                bad = {**request_to_payload(make_request("bad"), 1.0),
                       "topic_id": 2 ** 63}
                refused = await client.post("/serve", bad)
                served = await client.post("/serve", request_to_payload(
                    make_request("fine", text="a fresh question"), 2.0))
                return refused, served
        finally:
            await gateway.shutdown()

    refused, served = asyncio.run(scenario())
    assert refused.status == 400 and "'topic_id'" in refused.payload["detail"]
    assert served.status == 200
    assert len(service.cache) >= BANK
    assert _ids(Checkpointer.recover(checkpointer.directory)) == \
        _ids(service)
