"""An admission writes its example once; an eviction copies it out once.

``ExampleManager.admit`` calls ``ExampleCache.add_new``, which writes the
new example straight into the pool table's next free row and takes that
row in place; ``ExampleTable.detach`` copies an evicted row into the
pool's departures before the swap-delete.  Pinned here:

* every refusal either way in is what it was — the same ``ValueError``,
  with the cache, its index, its table and ``wal.bin`` where they stood;
* an example someone still holds when it is evicted — the caller of the
  admission that evicted it, or a context parked on the cluster path —
  reads every field as before and takes a ``record_use`` without moving
  the pool;
* departed rows are reused once their example is gone, so they do not
  pile up.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cache import ExampleCache
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.example import Example
from repro.core.manager import ExampleManager
from repro.core.service import ICCacheService
from repro.core.table import EMBEDDING
from repro.llm.model import GenerationResult
from repro.persistence import Checkpointer, WriteAheadLog
from repro.utils.clock import SimClock
from repro.workload import SyntheticDataset
from tests.conftest import make_request

DIM = 64
POOL = 12


def _unit(direction: int, dim: int = DIM) -> np.ndarray:
    vector = np.zeros(dim)
    vector[direction % dim] = 1.0
    return vector


def _pool(tmp_path, capacity=None):
    """A journaled manager over ``POOL`` cached examples."""
    cache = ExampleCache(dim=DIM)
    for i in range(POOL):
        request = make_request(f"req-{i}", topic_latent=_unit(i))
        cache.add(Example(f"ex-{i}", request, "a cached response " + "w " * i,
                          _unit(i), 0.7, "gemma-2-27b", 1.0))
    manager = ExampleManager(cache, ManagerConfig(
        sanitize=False, capacity_bytes=capacity), clock=SimClock(5.0))
    # The journal and its groups over this bare manager (no snapshot is
    # taken here, so the service needs no more than these two).
    checkpointer = Checkpointer(SimpleNamespace(cache=cache, manager=manager),
                                tmp_path / "ckpt")
    return manager, cache, checkpointer


def _state(cache: ExampleCache, wal_path) -> tuple:
    table = cache.table
    columns = {name: table.col(name).copy() for name in table._cols}
    return (len(cache), cache.total_bytes, list(cache._index._keys),
            columns, wal_path.read_bytes() if wal_path.exists() else b"")


def _assert_same(before: tuple, after: tuple) -> None:
    assert after[:3] == before[:3]
    assert after[3].keys() == before[3].keys()
    for name in before[3]:
        assert after[3][name].tobytes() == before[3][name].tobytes(), name


def _result(text="a generated answer", quality=0.8, model="gemma-2-27b"):
    return GenerationResult(model_name=model, quality=quality,
                            prompt_tokens=10, output_tokens=5, ttft_s=0.1,
                            decode_s=0.1, icl_boost=0.0, n_examples=0,
                            cost=0.01, text=text)


#: ``(what, request fields, result fields, embedding)`` — each a refusal
#: made before this change, through the manager and through the cache.
BAD = "bad \ud800 text"
REFUSALS = [
    pytest.param({}, {}, np.ones(DIM - 1), id="embedding-dim"),
    pytest.param({}, {}, np.zeros(DIM), id="zero-norm"),
    pytest.param({}, {}, np.full(DIM, np.nan), id="nan-norm"),
    pytest.param({}, {}, np.full(DIM, np.inf), id="inf-norm"),
    pytest.param({"latent": np.ones(3)}, {}, None, id="latent-shape"),
    pytest.param({}, {"quality": 1.5}, None, id="quality-above-1"),
    pytest.param({}, {"quality": -0.1}, None, id="quality-below-0"),
    # One bad value for each field of RECORD.
    pytest.param({"request_id": BAD}, {}, None, id="example_id+request_id"),
    pytest.param({}, {"text": BAD}, None, id="response_text"),
    pytest.param({}, {"model_name": BAD}, None, id="source_model"),
    pytest.param({"dataset": 5}, {}, None, id="dataset"),
    pytest.param({"task": "question_answering"}, {}, None, id="task"),
    pytest.param({"text": BAD}, {}, None, id="text"),
    pytest.param({"latent": np.ones((DIM, 1))}, {}, None, id="latent"),
    pytest.param({"topic_id": 2 ** 63}, {}, None, id="topic_id"),
    pytest.param({"difficulty": "0.5"}, {}, None, id="difficulty"),
    pytest.param({"prompt_tokens": -5}, {}, None, id="prompt_tokens"),
    pytest.param({"target_output_tokens": -1}, {}, None,
                 id="target_output_tokens"),
    pytest.param({"arrival_time": "noon"}, {}, None, id="arrival_time"),
    pytest.param({"metadata": {"__ndarray__": ""}}, {}, None, id="metadata"),
]


def _bad_request(request_fields: dict):
    request = make_request("fresh", topic_latent=_unit(POOL + 1))
    for name, value in request_fields.items():   # past __post_init__
        setattr(request, name, value)
    return request


@pytest.mark.parametrize("path", ["admit", "add_new", "add"])
@pytest.mark.parametrize("request_fields, result_fields, embedding", REFUSALS)
def test_refusals_are_unchanged(tmp_path, path, request_fields,
                                result_fields, embedding):
    manager, cache, checkpointer = _pool(tmp_path)
    checkpointer.wal.record("clock", {"now": 5.0})
    before = _state(cache, checkpointer.wal_path)
    request = _bad_request(request_fields)
    result = dataclasses.replace(_result(), **result_fields)
    bad_embedding, minted = embedding is not None, manager._next_id
    embedding = _unit(POOL + 1) if embedding is None else embedding
    with pytest.raises(ValueError):
        if path == "admit":
            manager.admit(request, result, embedding, 1.0)
        elif path == "add_new":
            cache.add_new(f"ex-x-{request.request_id}", request, result.text,
                          embedding, result.quality, result.model_name, 1.0,
                          5.0)
        else:   # a quality out of range is the constructor's refusal
            example = Example(f"ex-x-{request.request_id}", make_request(
                "fresh", topic_latent=_unit(POOL + 1)), "an answer", embedding,
                result.quality, "gemma-2-27b", 1.0)
            vars(example).update(request=request, response_text=result.text,
                                 source_model=result.model_name)
            cache.add(example)
    after = _state(cache, checkpointer.wal_path)
    _assert_same(before, after)
    kinds = [record["kind"] for record in
             WriteAheadLog.read(checkpointer.wal_path)]
    # An admission refused after it minted its id journals the counters
    # that moved, and nothing else (test_persistence_wal_frames.py); an
    # embedding is refused before the dedupe probe, so before anything.
    if bad_embedding or path != "admit":
        assert kinds == ["clock"]
        assert after[4] == before[4]
        assert manager._next_id == minted
    else:
        assert kinds == ["clock", "manager_counters"]
    checkpointer.detach()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("embedding", [
    np.ones(DIM - 1), np.ones((1, DIM)), np.zeros(DIM),
    np.full(DIM, np.nan), np.full(DIM, np.inf)])
def test_an_embedding_is_refused_before_the_dedupe_probe(tmp_path,
                                                         embedding):
    """No search runs, so nothing warns; no id is minted; the request's
    text is not sanitized."""
    manager, cache, checkpointer = _pool(tmp_path)
    manager.config.sanitize = True
    request = make_request("fresh", topic_latent=_unit(POOL + 1))
    request.text = "mail me at someone@example.com"
    minted = manager._next_id
    cache.nearest_similarity = None     # a probe would raise TypeError
    with pytest.raises(ValueError):
        manager.admit(request, _result(), embedding, 1.0)
    assert manager._next_id == minted and manager.admitted == 0
    assert request.text == "mail me at someone@example.com"
    checkpointer.detach()


def _fields(example: Example) -> tuple:
    return (example.example_id, id(example.request), example.response_text,
            example.source_model, example.embedding.tobytes(),
            example.quality, example.created_at, example.access_count,
            example.replay_count, example.source_cost, example.tokens,
            example.plaintext_bytes, example.embedding_norm,
            example.journal_row(), example.view()[1:])


def _pool_state(cache: ExampleCache) -> tuple:
    table = cache.table
    return (len(cache), cache.total_bytes, list(cache._index._keys),
            {name: table.col(name).tobytes() for name in table._cols})


def _assert_takes_a_use(manager: ExampleManager, example: Example) -> None:
    cache = manager.cache
    pool, streams = _pool_state(cache), example.journal_row()
    manager.record_use(example, 0.9, 0.2, True)
    assert _pool_state(cache) == pool
    assert example.journal_row() != streams


def test_an_example_its_own_admission_evicts_is_held_whole(tmp_path):
    """Every pooled example has earned offloads, so the fresh one — the
    heaviest, at the value floor — is the one victim of its admission.  It
    is read after the next admission wrote the pool's next free row."""
    manager, cache, checkpointer = _pool(tmp_path)
    for example in list(cache):
        manager.record_use(example, 0.5, 0.9, True)
    manager.config.capacity_bytes = cache.total_bytes + 40
    request = make_request("fresh", topic_latent=_unit(POOL + 1),
                           text="long " * 30)
    embedding = _unit(POOL + 1) * 3.0
    admitted = manager.admit(request, _result("an answer " * 20), embedding,
                             0.25)
    assert manager.evictions == 1 and admitted.example_id not in cache
    assert cache.total_bytes <= manager.config.capacity_bytes
    manager.config.capacity_bytes = None
    manager.admit(make_request("next", topic_latent=_unit(POOL + 2)),
                  _result("short"), _unit(POOL + 2), 1.0)
    expected = Example(admitted.example_id, request, "an answer " * 20,
                       embedding, 0.8, "gemma-2-27b", 0.25, created_at=5.0)
    assert _fields(admitted) == _fields(expected)
    _assert_takes_a_use(manager, admitted)
    assert admitted.journal_row() != expected.journal_row()
    checkpointer.detach()


def test_an_example_evicted_under_a_parked_context_is_held_whole():
    service = ICCacheService(ICCacheConfig(seed=3))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=3)
    service.seed_cache(dataset.example_bank_requests()[:60])
    request = dataset.online_requests(1)[0]
    sim = SimpleNamespace(total_load=lambda: 0.0)
    service.pipeline.route_batch([request], sim)
    ctx = service.pipeline._pending[request.request_id]
    held = [scored.example for scored in ctx.examples]
    assert held
    before = [_fields(example) for example in held]
    # Evict every held example, oldest first, each swap-delete moving
    # another row into the hole it leaves.
    for example in held:
        service.cache.remove(example.example_id)
    assert [_fields(example) for example in held] == before
    matrix = service.cache.table.col(EMBEDDING)
    for example in held:
        assert not np.shares_memory(example.embedding, matrix)
        _assert_takes_a_use(service.manager, example)


def test_departed_rows_are_reused_once_their_example_is_gone(tmp_path):
    manager, cache, checkpointer = _pool(tmp_path)
    departures = None
    kept = []
    for i in range(200):
        example = cache.remove(f"ex-{i}")
        if i % 50 == 0:
            kept.append((example, _fields(example)))
        request = make_request(f"req-{i}+", topic_latent=_unit(i + POOL))
        cache.add(Example(f"ex-{i + POOL}", request, "again", _unit(i + POOL),
                          0.7, "gemma-2-27b", 1.0))
        departures = cache.table._departures
    # Four examples are still held, each in a row of its own; the other
    # 196 rows were reused.
    assert departures._capacity <= 16
    assert [_fields(example) for example, _ in kept] == \
        [fields for _, fields in kept]
    checkpointer.detach()


#: Values every format stores that the common-record check passes over to
#: the field-by-field one: each must still be taken in.
UNUSUAL = [
    pytest.param("topic_id", np.int64(7), id="numpy-int"),
    pytest.param("topic_id", -3, id="negative-int"),
    pytest.param("text", "naïve — 東京", id="non-ascii-text"),
    pytest.param("metadata", {"note": [1, "two"]}, id="metadata"),
    pytest.param("latent", _unit(3).astype(np.float32), id="float32-latent"),
    pytest.param("arrival_time", 2, id="int-time"),
    pytest.param("difficulty", np.float64(0.25), id="numpy-float"),
]


@pytest.mark.parametrize("field, value", UNUSUAL)
def test_an_unusual_record_is_checked_field_by_field(field, value):
    cache = ExampleCache(dim=DIM)
    request = dataclasses.replace(
        make_request("fresh", topic_latent=_unit(3)), **{field: value})
    cache.add(Example("ex", request, "an answer", _unit(3), 0.5, "m", 1.0))
    assert "ex" in cache and getattr(cache.get("ex").request, field) is value
