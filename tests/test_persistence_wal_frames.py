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
(``docs/PERSISTENCE.md``): torn tail dropped, corruption refused.
"""

from __future__ import annotations

import json
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

    class FullDisk:
        def __init__(self, handle) -> None:
            self.handle = handle

        def write(self, data: bytes) -> int:
            return self.handle.write(data[:len(data) // 2])

        def close(self) -> None:
            self.handle.close()

    real, wal._fh = wal._fh, FullDisk(wal._fh)
    with pytest.raises(OSError, match="short journal write"):
        wal.record("clock", {"now": 2.0})
    assert wal.path.read_bytes() == before
    assert len(wal) == 1 and wal.size_bytes == len(before)
    wal._fh = real
    wal.record("clock", {"now": 3.0})
    wal.close()
    assert [r["data"]["now"] for r in WriteAheadLog.read(wal.path)] == \
        [1.0, 3.0]


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
