"""The framed binary journal against the JSON-lines codec it replaced.

``tests/wal_reference.py`` holds the old writer and reader verbatim.  The
same payloads go through both codecs; ``WriteAheadLog.read`` over frames
must return what the reference returns over its lines, field for field and
bit for bit — for every record kind under Hypothesis, on the named edges
(an EMA with no value yet, NaN, ``-0.0``, non-ASCII text, embedded
newlines, metadata carrying an array), and on a 310-operation serving run
whose two journals must also *recover* to the same service.  The second
half enumerates storage faults: every truncation offset and every single
bit of a small journal lands on its documented rule
(``docs/PERSISTENCE.md``): torn tail dropped, corruption refused.  In
between, groups: the frames of one operation leave in one ``write``, are
byte for byte the frames the same records make one by one, and a group
that fails part-way, is cut short by the disk, or is open at ``detach`` /
``reset`` loses nothing that happened.
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import EMA
from repro.core.cache import ExampleCache, ShardedExampleCache
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.example import Example
from repro.core.service import ICCacheService
from repro.persistence.snapshot import (
    _encode,
    cache_state,
    load_snapshot,
    restore_service,
)
from repro.persistence.wal import (
    MAGIC,
    RECORD_KINDS,
    Checkpointer,
    WriteAheadLog,
    apply_wal,
    filter_stale_records,
    read_journal,
)
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request, TaskType
from tests.strategies import DETERMINISM
from tests.wal_reference import ReferenceWriteAheadLog

DIM = 6


def assert_same(ours, theirs, where="record") -> None:
    """Deep equality with no tolerance: same types, floats by their bits
    (so ``-0.0`` is not ``0.0``; any NaN equals any NaN — JSON text keeps no
    NaN payload, a frame's raw double does), arrays by dtype, shape and
    bytes."""
    assert type(ours) is type(theirs), (where, ours, theirs)
    if isinstance(ours, dict):
        assert list(ours) == list(theirs) or set(ours) == set(theirs), where
        for key in ours:
            assert_same(ours[key], theirs[key], f"{where}.{key}")
    elif isinstance(ours, list):
        assert len(ours) == len(theirs), where
        for i, (a, b) in enumerate(zip(ours, theirs)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, where
        assert ours.tobytes() == theirs.tobytes(), where
    elif isinstance(ours, float):
        assert (ours != ours and theirs != theirs) or \
            struct.pack("<d", ours) == struct.pack("<d", theirs), \
            (where, ours, theirs)
    else:
        assert ours == theirs, (where, ours, theirs)


class _Both:
    """One payload stream into both codecs, as a cache journal callback."""

    def __init__(self, directory, epoch: int = 0, frames=None) -> None:
        self.frames = frames if frames is not None else WriteAheadLog(
            directory / "wal.bin", epoch=epoch)
        self.lines = ReferenceWriteAheadLog(directory / "ref.jsonl",
                                            epoch=self.frames.epoch)

    def __call__(self, kind: str, payload) -> None:
        self.frames.record(kind, payload)
        self.lines.record(kind, payload)

    def assert_equal(self) -> list[dict]:
        self.frames.close()
        self.lines.close()
        ours = WriteAheadLog.read(self.frames.path)
        theirs = ReferenceWriteAheadLog.read(self.lines.path)
        assert len(ours) == len(theirs) == len(self.frames)
        for a, b in zip(ours, theirs):
            assert_same(a, b, f"record {a['seq']} ({a['kind']})")
        return ours


# -- strategies --------------------------------------------------------------

any_float = st.floats(width=64)                   # NaN, the infinities, -0.0
i64 = st.integers(-2**63, 2**63 - 1)
counts = st.integers(0, 2**63 - 1)
texts = st.text(max_size=24) | st.sampled_from(
    ["", "two\nlines\n", "naïve café — 東京 🚀", "tab\tand \\ and \"quote\"",
     "\x00nul\x7f"])
metadatas = st.just({}) | st.fixed_dictionaries({
    "tenant": texts,
    "weights": st.lists(any_float, max_size=4).map(np.array),
    "nested": st.fixed_dictionaries({"ids": st.lists(i64, max_size=3)}),
})


@st.composite
def emas(draw) -> EMA:
    ema = EMA(alpha=draw(st.floats(min_value=1e-9, max_value=1.0)))
    ema._value = draw(st.none() | any_float)
    ema.count = draw(counts)
    return ema


@st.composite
def examples(draw, example_id: str) -> Example:
    embedding = np.array(draw(st.lists(
        st.floats(-1e3, 1e3) | st.just(-0.0), min_size=DIM, max_size=DIM)))
    embedding[0] = 1.0 + abs(embedding[0])        # the index refuses zeros
    request = Request(
        request_id=draw(texts), dataset=draw(texts),
        task=draw(st.sampled_from(list(TaskType))), text=draw(texts),
        latent=np.array(draw(st.lists(any_float, max_size=DIM)), dtype=float),
        topic_id=draw(i64),
        difficulty=draw(st.floats(0.0, 1.0) | st.just(-0.0)),
        prompt_tokens=draw(st.integers(1, 2**63 - 1)),
        target_output_tokens=draw(i64), arrival_time=draw(any_float),
        metadata=draw(metadatas))
    return Example(
        example_id=example_id, request=request, response_text=draw(texts),
        embedding=embedding,
        quality=draw(st.floats(0.0, 1.0) | st.just(-0.0)),
        source_model=draw(texts), source_cost=draw(any_float),
        created_at=draw(any_float), access_count=draw(i64),
        replay_count=draw(i64), gain_ema=draw(emas()),
        offload_gain=draw(emas()), feedback_quality=draw(emas()))


# -- every kind, field for field ------------------------------------------------

@settings(**DETERMINISM)
@given(data=st.data(), epoch=st.integers(0, 2**32 - 1))
def test_every_kind_decodes_to_what_the_reference_decodes(
        tmp_path_factory, data, epoch):
    both = _Both(tmp_path_factory.mktemp("kinds"), epoch=epoch)
    cache = ExampleCache(dim=DIM)
    cache.journal = both
    ids = [data.draw(texts.filter(bool), label="id")]
    ids.append(ids[0] + "-b")
    for example_id in ids:
        cache.add(data.draw(examples(example_id)))               # add
    cache.overwrite(data.draw(examples(ids[0])))                 # overwrite
    rewritten = cache.get(ids[1])
    rewritten.response_text = data.draw(texts)
    rewritten.gain_ema = data.draw(emas())
    both("replay_rewrite", {
        "example": rewritten,
        "teacher_decode_counts": data.draw(st.dictionaries(
            texts, i64, max_size=3))})
    cache.remove(ids[0])                                         # remove
    both("manager_counters", {
        "next_id": data.draw(i64), "admitted": data.draw(i64),
        "rejected_duplicates": data.draw(i64), "evictions": data.draw(i64)})
    both("clock", {"now": data.draw(any_float)})
    both("decay", {"periods": data.draw(i64)})
    both("retrain", {"trainings": data.draw(i64), "per_shard": None})
    both("retrain", {"trainings": data.draw(i64),
                     "per_shard": data.draw(st.lists(i64, max_size=5))})
    records = both.assert_equal()
    assert {r["kind"] for r in records} == set(RECORD_KINDS)
    assert all(r["epoch"] == epoch for r in records)


def test_the_named_edges_round_trip(tmp_path):
    """An EMA with no value yet stays ``None`` beside a NaN and a ``-0.0``
    one; text keeps its newlines and code points; empty metadata stays
    empty and a metadata array keeps dtype and bytes."""
    both = _Both(tmp_path)
    cache = ExampleCache(dim=DIM)
    cache.journal = both
    nan = EMA(alpha=0.25)
    nan._value, nan.count = float("nan"), 3
    negative_zero = EMA(alpha=1.0)
    negative_zero._value, negative_zero.count = -0.0, 1
    for example_id, metadata in (("plain", {}), ("tagged", {
            "tenant": "ünï", "weights": np.arange(3, dtype=np.int32)})):
        cache.add(Example(
            example_id=example_id,
            request=Request(
                request_id="rid-" + example_id, dataset="d",
                task=TaskType.TRANSLATION, text="première ligne\nseconde\n",
                latent=np.array([-0.0, float("inf"), float("nan")]),
                topic_id=-1, difficulty=-0.0, prompt_tokens=5,
                target_output_tokens=0, arrival_time=-0.0,
                metadata=metadata),
            response_text="答え\n\n", embedding=np.arange(1.0, DIM + 1),
            quality=1.0, source_model="模型", source_cost=-0.0,
            gain_ema=EMA(alpha=0.2), offload_gain=nan,
            feedback_quality=negative_zero))
    both("replay_rewrite", {"example": cache.get("tagged"),
                            "teacher_decode_counts": {}})
    first, second, rewrite = both.assert_equal()
    example = first["data"]["example"]
    assert example["gain_ema"] == {"alpha": 0.2, "value": None, "count": 0}
    assert np.isnan(example["offload_gain"]["value"])
    assert str(example["feedback_quality"]["value"]) == "-0.0"
    assert str(example["source_cost"]) == "-0.0"
    assert example["request"]["text"].count("\n") == 2
    assert example["request"]["metadata"] == {}
    weights = second["data"]["example"]["request"]["metadata"]["weights"]
    assert weights.dtype == np.int32 and weights.tolist() == [0, 1, 2]
    assert rewrite["data"]["example"]["gain_ema"]["value"] is None
    assert rewrite["data"]["teacher_decode_counts"] == {}


def test_sharded_cache_journals_a_per_shard_retrain(tmp_path):
    """The lazy retrain of a sharded index journals ``per_shard``; the
    monolithic one journals ``None``.  Both decode as the reference's."""
    for cache in (ExampleCache(dim=DIM),
                  ShardedExampleCache(dim=DIM, n_shards=2)):
        directory = tmp_path / type(cache).__name__
        directory.mkdir()
        both = _Both(directory)
        cache.journal = both
        rng = np.random.default_rng(5)
        for i in range(200):
            cache.add(Example(
                example_id=f"ex-{i}",
                request=Request(f"r{i}", "d", TaskType.CONVERSATION, "t",
                                rng.normal(size=DIM), 0, 0.5, 3, 4),
                response_text="r", embedding=rng.normal(size=DIM),
                quality=0.5, source_model="m", source_cost=1.0))
            cache.nearest_similarity(rng.normal(size=DIM))
        retrains = [r["data"] for r in both.assert_equal()
                    if r["kind"] == "retrain"]
        assert retrains
        sharded = isinstance(cache, ShardedExampleCache)
        assert all((r["per_shard"] is not None) == sharded for r in retrains)


# -- a record that cannot be encoded -------------------------------------------

def _cached_example(cache, example_id="ex", **request_fields) -> Example:
    request = Request(**{**dict(
        request_id="r", dataset="d", task=TaskType.CONVERSATION, text="t",
        latent=np.ones(DIM), topic_id=0, difficulty=0.5, prompt_tokens=3,
        target_output_tokens=4), **request_fields})
    example = Example(example_id=example_id, request=request,
                      response_text="r", embedding=np.ones(DIM), quality=0.5,
                      source_model="m", source_cost=1.0)
    cache.add(example)
    return example


@pytest.mark.parametrize("kind, payload", [
    ("manager_counters", {"next_id": 2**63, "admitted": 0,
                          "rejected_duplicates": 0, "evictions": 0}),
    ("decay", {"periods": -2**63 - 1}),
    ("retrain", {"trainings": 1, "per_shard": [0, 2**64]}),
    ("remove", 17),
    ("clock", {"now": "noon"}),
    ("upsert", {}),
])
def test_unencodable_record_raises_and_writes_nothing(tmp_path, kind,
                                                      payload):
    wal = WriteAheadLog(tmp_path / "wal.bin")
    wal.record("clock", {"now": 1.0})
    before = wal.path.read_bytes()
    with pytest.raises((ValueError, TypeError, AttributeError, struct.error)):
        wal.record(kind, payload)
    assert wal.path.read_bytes() == before
    assert len(wal) == 1 and wal.size_bytes == len(before)
    wal.record("clock", {"now": 2.0})
    wal.close()
    assert [r["seq"] for r in WriteAheadLog.read(wal.path)] == [0, 1]


@pytest.mark.parametrize("request_fields", [
    {"topic_id": 2**70},
    {"latent": np.array(["not", "a", "vector"])},
    {"latent": np.ones((2, DIM))},
    {"request_id": "lone surrogate \ud800"},
], ids=["int-outside-i64", "latent-dtype", "latent-2d", "unencodable-text"])
def test_unencodable_example_raises_and_writes_nothing(tmp_path,
                                                       request_fields):
    wal = WriteAheadLog(tmp_path / "wal.bin")
    cache = ExampleCache(dim=DIM)
    good = _cached_example(cache, "good")
    bad = _cached_example(cache, "bad", **request_fields)
    wal.record("add", good)
    before = wal.path.read_bytes()
    for kind in ("add", "overwrite"):
        with pytest.raises((ValueError, TypeError, struct.error)):
            wal.record(kind, bad)
    assert wal.path.read_bytes() == before and len(wal) == 1
    # An evicted example took its row with it: the same record, bit for bit.
    wal.record("add", cache.remove("good"))
    first, second = WriteAheadLog.read(wal.path)
    assert_same(second["data"], first["data"])


def test_a_short_write_is_taken_back(tmp_path):
    """A full disk accepts part of a frame: the fragment is truncated away
    before the error surfaces, so a later append cannot land behind it."""
    wal = WriteAheadLog(tmp_path / "wal.bin")
    wal.record("clock", {"now": 1.0})
    before = wal.path.read_bytes()
    real, wal._fh = wal._fh, _CountingHandle(wal.path, accept=0.5)
    with pytest.raises(OSError, match="short journal write"):
        wal.record("clock", {"now": 2.0})
    assert wal.path.read_bytes() == before
    assert len(wal) == 1 and wal.size_bytes == len(before)
    wal._fh.close()
    wal._fh = real
    wal.record("clock", {"now": 3.0})
    wal.close()
    assert [r["data"]["now"] for r in WriteAheadLog.read(wal.path)] == \
        [1.0, 3.0]


# -- groups: one operation, one write ----------------------------------------------

class _CountingHandle:
    """Stands in for the journal's append handle: counts ``write`` calls,
    and with ``accept`` set takes only that share of each (a full disk)."""

    def __init__(self, path, accept: float = 1.0) -> None:
        self.handle = path.open("ab", buffering=0)
        self.accept = accept
        self.writes: list[int] = []

    def write(self, data: bytes) -> int:
        self.writes.append(len(data))
        return self.handle.write(data[:int(len(data) * self.accept)])

    def close(self) -> None:
        self.handle.close()


def _clocks(wal, *times: float) -> None:
    for now in times:
        wal.record("clock", {"now": now})


def test_a_group_is_one_write_of_the_frames_the_records_make_alone(tmp_path):
    """Nothing reaches the file before the group closes; what does is the
    concatenation of the frames the same records make one write each."""
    alone = WriteAheadLog(tmp_path / "alone.bin", epoch=2)
    grouped = WriteAheadLog(tmp_path / "grouped.bin", epoch=2)
    handle = grouped._fh = _CountingHandle(grouped.path)
    cache = ExampleCache(dim=DIM)
    example = _cached_example(cache, metadata={"k": "v"})
    payloads = [("add", example), ("remove", "ex"),
                ("manager_counters", {"next_id": 1, "admitted": 1,
                                      "rejected_duplicates": 0,
                                      "evictions": 1})]
    for kind, payload in payloads:
        alone.record(kind, payload)
    alone.record("clock", {"now": 1.0})
    with grouped.group():
        for kind, payload in payloads:
            grouped.record(kind, payload)
            assert grouped.path.stat().st_size == 0 and not handle.writes
        # seq and size count the frames on hand; 29 bytes: the clock frame
        assert len(grouped) == 3
        assert grouped.size_bytes == alone.size_bytes - 29
    assert len(handle.writes) == 1
    grouped.record("clock", {"now": 1.0})
    assert len(handle.writes) == 2
    alone.close()
    grouped.close()
    assert grouped.path.read_bytes() == alone.path.read_bytes()
    assert [r["seq"] for r in WriteAheadLog.read(grouped.path)] == [0, 1, 2, 3]


def test_groups_nest_and_the_outermost_writes(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.bin")
    closed = []
    with wal.group(lambda: closed.append("outer")):
        _clocks(wal, 1.0)
        with wal.group(lambda: closed.append("inner")):
            _clocks(wal, 2.0)
        assert not wal.path.exists() and not closed
    assert closed == ["outer"]
    wal.close()
    assert [r["data"]["now"] for r in WriteAheadLog.read(wal.path)] == \
        [1.0, 2.0]


def test_a_group_that_fails_part_way_keeps_the_frames_before_it(tmp_path):
    """An unencodable payload mid-group: the frames already encoded describe
    mutations that happened and are written as the exception leaves the
    group; the failing record leaves no byte and takes no seq; ``closed``
    does not run."""
    wal = WriteAheadLog(tmp_path / "wal.bin")
    closed = []
    with pytest.raises(struct.error):
        with wal.group(lambda: closed.append(True)):
            _clocks(wal, 1.0, 2.0)
            wal.record("decay", {"periods": 2**63})
            _clocks(wal, 99.0)                    # never reached
    assert not closed and len(wal) == 2
    assert wal.size_bytes == wal.path.stat().st_size
    _clocks(wal, 3.0)
    wal.close()
    records = WriteAheadLog.read(wal.path)
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert [r["data"]["now"] for r in records] == [1.0, 2.0, 3.0]


def test_a_refused_add_inside_an_admission_journals_what_happened(tmp_path):
    """``cache.add`` refuses (a zero embedding) after the id was minted:
    the admission's group closes on the way out of the exception with one
    ``manager_counters`` frame holding the advanced ``next_id`` and no
    ``add``, so a recovered manager never mints that id again."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:10])
    checkpointer = Checkpointer(service, tmp_path)
    checkpointer.checkpoint()
    request = dataset.online_requests(1)[0]
    result = service.models[service.large_name].generate(request)
    minted = service.manager._next_id
    with pytest.raises(ValueError, match="zero vector"):
        service.manager.admit(request, result,
                              np.zeros(service.config.embedding_dim), 1.0)
    assert service.manager._next_id == minted + 1
    checkpointer.detach()
    records = WriteAheadLog.read(checkpointer.wal_path)
    assert [r["kind"] for r in records] == ["manager_counters"]
    assert records[0]["data"]["next_id"] == minted + 1
    recovered = Checkpointer.recover(tmp_path)
    assert recovered.manager._next_id == minted + 1
    assert _state(recovered)[:2] == _state(service)[:2]


def test_a_short_write_of_a_group_takes_the_whole_group_back(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.bin")
    _clocks(wal, 1.0)
    before = wal.path.read_bytes()
    real, wal._fh = wal._fh, _CountingHandle(wal.path, accept=0.5)
    with pytest.raises(OSError, match="short journal write"):
        with wal.group():
            _clocks(wal, 2.0, 3.0, 4.0)
    assert wal.path.read_bytes() == before
    assert len(wal) == 1 and wal.size_bytes == len(before)
    wal._fh.close()
    wal._fh = real
    _clocks(wal, 5.0)
    wal.close()
    records = WriteAheadLog.read(wal.path)
    assert [(r["seq"], r["data"]["now"]) for r in records] == \
        [(0, 1.0), (1, 5.0)]


def test_detach_and_reset_with_a_group_open_flush_first(tmp_path):
    """``detach()`` mid-group writes the frames on hand.  ``checkpoint()``
    mid-group (its ``reset``) writes them to the journal they were numbered
    for before truncating it — the snapshot subsumes them — so the rest of
    the group starts the new journal at ``seq`` 0 in the new epoch."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:10])
    checkpointer = Checkpointer(service, tmp_path)
    checkpointer.checkpoint()
    ids = [ex.example_id for ex in service.cache]
    with checkpointer.group():
        service.cache.remove(ids[0])
        assert checkpointer.wal_path.stat().st_size == 0
        checkpointer.checkpoint()                 # reset with a group open
        assert len(checkpointer.wal) == 0
        service.cache.remove(ids[1])
        service.cache.remove(ids[2])
        checkpointer.detach()                     # detach with a group open
        assert checkpointer.wal_path.stat().st_size > 0
    records = WriteAheadLog.read(checkpointer.wal_path)
    assert [(r["seq"], r["epoch"], r["data"]["example_id"])
            for r in records] == [(0, 2, ids[1]), (1, 2, ids[2])]
    recovered = Checkpointer.recover(tmp_path)
    assert [ex.example_id for ex in recovered.cache] == ids[3:]


# -- the 310-operation scenario, journaled twice --------------------------------

SEED = 11
BANK = 120


def _state(service) -> tuple:
    """What a journal replay rebuilds: the cache, the manager's counters,
    the teacher's decode positions, the clock."""
    teacher = service.manager.replay_engine.teacher
    manager = service.manager
    return (json.dumps(_encode(cache_state(service.cache))),
            (manager._next_id, manager.admitted, manager.rejected_duplicates,
             manager.evictions, manager._last_decay),
            dict(teacher._decode_counts), service.clock.now)


def test_serving_run_journals_and_recovers_the_same_from_both_codecs(
        tmp_path):
    """300 ``serve`` + 10 ``serve_batch`` at capacity, ``sanitize=True``,
    three maintenance ticks (PR 17/19's scenario): equal decoded record
    lists, and the services recovered from either journal are equal."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=True)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, tmp_path)
    checkpointer.checkpoint()
    both = _Both(tmp_path, frames=checkpointer.wal)
    recorded = []

    def tee(kind, payload):
        recorded.append(kind)
        both(kind, payload)

    service.cache.journal = tee
    requests = dataset.online_requests(380)
    for done, request in enumerate(requests[:300]):
        if done and done % 100 == 0:
            service.clock.advance(1800.0)
            service.run_maintenance(replay=True)
        service.serve(request, load=None if done % 3 else 0.9)
    for start in range(300, 380, 8):
        service.serve_batch(requests[start:start + 8], load=0.2)
    service.cache.journal = None

    records = both.assert_equal()
    assert [r["kind"] for r in records] == recorded
    # The logical content is the sequence the journal held before groups,
    # minus the two intermediate ``manager_counters`` of each admission
    # (after the id was minted, after the add): every operation ends in
    # exactly one, with the final values — an admission (``add``, its
    # evictions), a maintenance eviction pass, a rejected duplicate.
    shape = "".join({"add": "A", "remove": "R", "manager_counters": "C"}
                    .get(kind, ".") for kind in recorded)
    assert re.fullmatch(r"(?:AR*C|R+C|C|\.)*", shape), shape
    counters = [r["data"] for r in records if r["kind"] == "manager_counters"]
    assert all(c["next_id"] == c["admitted"] for c in counters)
    kinds = set(recorded)
    assert {"add", "remove", "manager_counters", "replay_rewrite", "clock",
            "decay"} <= kinds and recorded.count("remove") >= 150
    assert checkpointer.wal.size_bytes == \
        checkpointer.wal_path.stat().st_size < \
        0.7 * both.lines.path.stat().st_size

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # admissions in the tail: warned
        from_frames = Checkpointer.recover(tmp_path)
        snapshot = load_snapshot(checkpointer.snapshot_path)
        from_lines = restore_service(snapshot)
        apply_wal(from_lines, filter_stale_records(
            ReferenceWriteAheadLog.read(both.lines.path), snapshot))
    assert _state(from_frames) == _state(from_lines)
    # Against the live service: membership and counters (what serving did to
    # the used examples' bookkeeping is not a cache mutation, hence in no
    # journal — the reason serving windows are bounded by checkpoints).
    assert [ex.example_id for ex in from_frames.cache] == \
        [ex.example_id for ex in service.cache]
    assert _state(from_frames)[1] == _state(service)[1]


# -- fault enumeration -----------------------------------------------------------

@pytest.fixture
def three_frames(tmp_path):
    """``manager_counters | add | replay_rewrite``: (path, frame offsets)."""
    wal = WriteAheadLog(tmp_path / "wal.bin", epoch=3)
    cache = ExampleCache(dim=DIM)
    example = _cached_example(cache, metadata={"k": "v"})
    wal.record("manager_counters", {"next_id": 1, "admitted": 1,
                                    "rejected_duplicates": 0, "evictions": 0})
    wal.record("add", example)
    wal.record("replay_rewrite", {"example": example,
                                  "teacher_decode_counts": {"r": 2}})
    wal.close()
    records, sizes, torn = read_journal(wal.path)
    assert [r["kind"] for r in records] == [
        "manager_counters", "add", "replay_rewrite"] and torn == 0
    offsets = np.cumsum([len(MAGIC)] + sizes).tolist()
    assert offsets[-1] == wal.path.stat().st_size
    return wal.path, offsets


def test_every_truncation_of_the_last_frame_is_a_torn_tail(three_frames):
    """Cut anywhere inside the last frame — length prefix, CRC, header or
    body — ``read`` returns the first two records, and a resumed log
    truncates the fragment and appends at ``seq`` 2."""
    path, offsets = three_frames
    whole = path.read_bytes()
    intact = WriteAheadLog.read(path)
    for cut in range(offsets[2], offsets[3]):
        path.write_bytes(whole[:cut])
        records, _, torn = read_journal(path)
        assert len(records) == 2 and torn == cut - offsets[2], cut
        for ours, theirs in zip(records, intact):
            assert_same(ours, theirs)
        resumed = WriteAheadLog(path, epoch=3)
        assert len(resumed) == 2 and resumed.size_bytes == offsets[2], cut
        assert path.stat().st_size == offsets[2], cut
        resumed.record("clock", {"now": float(cut)})
        resumed.close()
        again = WriteAheadLog.read(path)
        assert [r["seq"] for r in again] == [0, 1, 2], cut
        assert again[2]["data"] == {"now": float(cut)}, cut


def _torn_group_service(directory):
    """A service at capacity behind a ``Checkpointer``, its examples used
    (so replay has candidates), its serving window closed by a checkpoint:
    what follows is journaled cache lifecycle only."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=True)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:40])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, directory)
    requests = dataset.online_requests(31)
    for request in requests[:30]:
        service.serve(request, load=0.2)
    checkpointer.checkpoint()
    return service, checkpointer, requests[30]


def _grouped_admission(service, checkpointer, request) -> None:
    result = service.models[service.large_name].generate(request)
    embedding = service.embedder.embed(request.text, request.latent)
    assert service.manager.admit(request, result, embedding, 1.0) is not None


def _grouped_replay(service, checkpointer, request) -> None:
    service.clock.advance(1800.0)
    assert service.manager.run_replay().replayed > 1


@pytest.mark.parametrize("operation, kinds, journaled", [
    # cache and counters; the admission's generate moved the teacher's
    # decode position, which only a replay_rewrite carries
    (_grouped_admission, r"add(,remove)+,manager_counters", 2),
    (_grouped_replay, r"replay_rewrite(,replay_rewrite)+", 3),
], ids=["at-capacity-admission", "replay-pass"])
def test_every_truncation_of_a_group_is_a_torn_tail(tmp_path, operation,
                                                    kinds, journaled):
    """One operation's frames go down in one ``write``; a crash can cut that
    write anywhere.  At every byte offset the journal reads as the whole
    frames before the cut plus a torn tail — never corruption — and
    recovery (run at each frame edge, one byte either side of it, and every
    97th offset) lands on the snapshot plus exactly those frames."""
    live = tmp_path / "live"
    service, checkpointer, request = _torn_group_service(live)
    assert checkpointer.wal.size_bytes == 0
    operation(service, checkpointer, request)
    checkpointer.detach()
    whole = checkpointer.wal_path.read_bytes()
    records, sizes, torn = read_journal(checkpointer.wal_path)
    assert torn == 0 and re.fullmatch(
        kinds, ",".join(r["kind"] for r in records)), records
    edges = np.cumsum([len(MAGIC)] + sizes).tolist()
    assert edges[-1] == len(whole)

    crashed = tmp_path / "crashed"
    shutil.copytree(live, crashed)
    snapshot = load_snapshot(crashed / Checkpointer.SNAPSHOT_NAME)
    states = {}
    for cut in range(len(whole) + 1):
        (crashed / Checkpointer.WAL_NAME).write_bytes(whole[:cut])
        intact = sum(edge <= cut for edge in edges[1:])
        prefix, _, dropped = read_journal(crashed / Checkpointer.WAL_NAME)
        assert len(prefix) == intact, cut
        assert dropped == (cut - edges[intact] if cut >= edges[0] else cut)
        if cut % 97 and not any(abs(cut - edge) <= 1 for edge in edges):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # an admission in the tail
            recovered = Checkpointer.recover(crashed)
            if intact not in states:
                expected = restore_service(snapshot)
                apply_wal(expected, filter_stale_records(
                    records[:intact], snapshot))
                states[intact] = _state(expected)
        assert _state(recovered) == states[intact], cut
    assert len(states) == len(records) + 1
    assert states[len(records)][:journaled] == _state(service)[:journaled]


def test_a_journal_cut_inside_its_magic_is_empty(tmp_path):
    path = tmp_path / "wal.bin"
    for cut in range(len(MAGIC) + 1):
        path.write_bytes(MAGIC[:cut])
        assert WriteAheadLog.read(path) == []
        resumed = WriteAheadLog(path)
        resumed.record("clock", {"now": 1.0})
        resumed.close()
        assert path.read_bytes().startswith(MAGIC)
        assert [r["seq"] for r in WriteAheadLog.read(path)] == [0]


def test_every_single_bit_flip_is_refused(three_frames):
    """Flip each bit of each byte of every frame — length prefix included,
    the last frame included: ``read`` raises ``ValueError`` naming the
    path; never a wrong record, never a silently shorter journal."""
    path, offsets = three_frames
    whole = path.read_bytes()
    for position in range(offsets[0], offsets[3]):
        frame = sum(position >= start for start in offsets[1:3])
        for bit in range(8):
            damaged = bytearray(whole)
            damaged[position] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            with pytest.raises(ValueError) as refused:
                WriteAheadLog.read(path)
            message = str(refused.value)
            assert str(path) in message, (position, bit)
            assert f"frame {frame} at byte offset {offsets[frame]}" \
                in message, (position, bit, message)


def test_a_flipped_bit_in_the_magic_is_refused(three_frames):
    path, _ = three_frames
    damaged = bytearray(path.read_bytes())
    damaged[2] ^= 0x04
    path.write_bytes(bytes(damaged))
    with pytest.raises(ValueError, match="not a framed"):
        WriteAheadLog.read(path)
    with pytest.raises(ValueError, match="not a framed"):
        WriteAheadLog(path)


def test_recovery_refuses_to_start_on_a_corrupt_journal(tmp_path):
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:20])
    checkpointer = Checkpointer(service, tmp_path)
    checkpointer.checkpoint()
    for example_id in [ex.example_id for ex in service.cache][:3]:
        service.cache.remove(example_id)
    checkpointer.detach()
    raw = bytearray(checkpointer.wal_path.read_bytes())
    raw[-1] ^= 0x01                          # the last byte of the last frame
    checkpointer.wal_path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="frame 2 .* fails its CRC"):
        Checkpointer.recover(tmp_path)


# -- files that are not this format ------------------------------------------------

def test_a_json_lines_journal_is_refused_by_name(tmp_path):
    """An older tree's journal at the path is neither misparsed as frames
    nor mistaken for a torn tail (its first four bytes read as a length of
    1.7 GB) and silently emptied."""
    path = tmp_path / "wal.bin"
    legacy = ReferenceWriteAheadLog(path)
    legacy.record("clock", {"now": 1.0})
    legacy.close()
    before = path.read_bytes()
    with pytest.raises(ValueError, match="JSON-lines") as refused:
        WriteAheadLog.read(path)
    assert str(path) in str(refused.value)
    with pytest.raises(ValueError, match="JSON-lines"):
        WriteAheadLog(path)
    assert path.read_bytes() == before, "resume must not truncate it"


def test_a_legacy_journal_beside_the_snapshot_is_refused(tmp_path):
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    Checkpointer(service, tmp_path).checkpoint()
    service.cache.journal = None
    legacy = tmp_path / "wal.jsonl"
    legacy.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="wal.jsonl") as refused:
        Checkpointer.recover(tmp_path)
    assert str(legacy) in str(refused.value)
    with pytest.raises(ValueError, match="wal.jsonl"):
        Checkpointer(service, tmp_path)
    assert service.cache.journal is None
