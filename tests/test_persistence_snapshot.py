"""Snapshot round-trips: every index type, then the full service.

The load-bearing invariant is stronger than "same members": the flat
storage's row order is the index's add/remove history (swap-delete), and
K-Means reads rows in that order at retrain time — so a round-tripped
index must not only search identically *now*, it must also retrain
identically *later*.  Every index test therefore checks search equality
both immediately after restore and after a forced retrain on both copies.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.snapshot import SNAPSHOT_VERSION, load_snapshot
from repro.persistence.wal import Checkpointer
from repro.vectorstore import ivf
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.ivf import IVFIndex
from repro.workload.datasets import SyntheticDataset
from tests import state_json

DIM = 16


def _vectors(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, DIM))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _json_roundtrip(state: dict) -> dict:
    """State -> JSON text -> state, proving on-disk serializability."""
    return state_json.loads(state_json.dumps(state))


def _hits(results) -> list[tuple]:
    return [(r.key, r.score) for r in results]


def _batch_hits(batches) -> list[list[tuple]]:
    return [_hits(hits) for hits in batches]


def _churned_index(cls, n: int = 120, **kwargs):
    """An index with non-trivial history: adds, a train, removals, churn."""
    index = cls(dim=DIM, **kwargs)
    vecs = _vectors(n)
    for i, vec in enumerate(vecs):
        index.add(i, vec)
    index.search(vecs[0], 5)        # force (lazy) training
    for i in range(0, n, 7):        # swap-deletes scramble row order
        index.remove(i)
    for i, vec in enumerate(_vectors(20, seed=3)):
        index.add(n + i, vec)       # post-train assignment path
    return index


class TestFlatIndexRoundtrip:
    def test_search_and_row_order_preserved(self):
        index = FlatIndex(DIM)
        for i, vec in enumerate(_vectors(40)):
            index.add(i, vec)
        for i in (0, 5, 17, 39):
            index.remove(i)
        restored = FlatIndex.from_state(_json_roundtrip(index.to_state()))
        assert restored.keys == index.keys          # row order, not set
        assert np.array_equal(restored.matrix, index.matrix)
        queries = _vectors(10, seed=1)
        assert [_hits(hits) for hits in restored.search_batch(queries, 5)] \
            == [_hits(hits) for hits in index.search_batch(queries, 5)]

    def test_add_after_restore(self):
        index = FlatIndex(DIM)
        for i, vec in enumerate(_vectors(10)):
            index.add(i, vec)
        restored = FlatIndex.from_state(_json_roundtrip(index.to_state()))
        extra = _vectors(1, seed=9)[0]
        index.add("x", extra)
        restored.add("x", extra)
        assert restored.keys == index.keys
        assert np.array_equal(restored.matrix, index.matrix)

    def test_shape_mismatch_rejected(self):
        index = FlatIndex(DIM)
        index.add(0, _vectors(1)[0])
        state = index.to_state()
        state["keys"] = [0, 1]
        with pytest.raises(ValueError, match="shape"):
            FlatIndex.from_state(state)


class TestIVFIndexRoundtrip:
    def test_search_identical_after_removals(self):
        index = _churned_index(IVFIndex, nprobe=3, seed=4)
        assert index.is_trained
        restored = IVFIndex.from_state(_json_roundtrip(index.to_state()))
        assert restored.trainings == index.trainings
        assert restored.n_clusters == index.n_clusters
        queries = _vectors(20, seed=2)
        for query in queries:
            assert _hits(restored.search(query, 5)) == _hits(index.search(query, 5))
        assert _batch_hits(restored.search_batch(queries, 5)) == \
            _batch_hits(index.search_batch(queries, 5))

    def test_retrain_identical_after_restore(self):
        """The decisive history test: both copies retrain to the same state."""
        index = _churned_index(IVFIndex, nprobe=3, seed=4)
        restored = IVFIndex.from_state(_json_roundtrip(index.to_state()))
        # Identical churn on both copies, enough to trigger a retrain.
        spare = _vectors(50, seed=8)
        for copy in (index, restored):
            for i, vec in enumerate(spare):
                copy.add(("spare", i), vec)
        trainings_before = index.trainings
        query = spare[0]
        assert _hits(index.search(query, 5)) == _hits(restored.search(query, 5))
        assert index.trainings == restored.trainings > trainings_before

    def test_incremental_retrain_identical_after_restore(self, monkeypatch):
        """The WAL-replay contract at scale: with the pool above
        ``INCREMENTAL_MIN_N``, a forced retrain takes the split/merge path,
        whose schedule must be a pure function of journaled state — so the
        restored copy must reproduce centroids and blocks bit-identically."""
        monkeypatch.setattr(ivf, "INCREMENTAL_MIN_N", 80)
        index = _churned_index(IVFIndex, nprobe=3, seed=4)
        restored = IVFIndex.from_state(_json_roundtrip(index.to_state()))
        for copy in (index, restored):
            for i, vec in enumerate(_vectors(40, seed=9)):
                copy.add(("inc", i), vec)
            assert len(copy) >= ivf.INCREMENTAL_MIN_N
            assert copy.retrain()
        assert index.trainings == restored.trainings
        assert np.array_equal(index._centroids, restored._centroids)
        assert len(index._blocks) == len(restored._blocks)
        for a, b in zip(index._blocks, restored._blocks):
            assert a.keys == b.keys
            assert np.array_equal(a.matrix, b.matrix)

    def test_untrained_index_roundtrips(self):
        index = IVFIndex(dim=DIM)
        for i, vec in enumerate(_vectors(10)):
            index.add(i, vec)
        restored = IVFIndex.from_state(_json_roundtrip(index.to_state()))
        assert not restored.is_trained
        query = _vectors(1, seed=5)[0]
        assert _hits(restored.search(query, 3)) == _hits(index.search(query, 3))

    def test_forced_retrain_noop_below_min_size(self):
        index = IVFIndex(dim=DIM)
        index.add(0, _vectors(1)[0])
        assert index.retrain() is False
        assert index.trainings == 0

    def test_blocks_must_hold_exactly_the_state_keys(self):
        """The blocks are the only copy of the rows: a key list they do not
        match (one missing, one stranger, or a block per cluster too many)
        is refused, not restored into an index that cannot find a row."""
        state = _churned_index(IVFIndex, nprobe=3, seed=4).to_state()
        empty = FlatIndex(DIM).to_state()
        for broken in (dict(state, keys=state["keys"][:-1]),
                       dict(state, keys=[*state["keys"][:-1], "stranger"]),
                       dict(state, blocks=[*state["blocks"], empty])):
            with pytest.raises(ValueError, match="exactly its keys"):
                IVFIndex.from_state(broken)
        assert len(IVFIndex.from_state(state)) == len(state["keys"])


def _build_service(seed: int = 11,
                   bank: int = 120) -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(ICCacheConfig(
        seed=seed, manager=ManagerConfig(sanitize=False)
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:bank])
    return service, dataset


def _snap(outcomes) -> list[tuple]:
    return [(o.choice.model_name, o.result.quality, o.result.n_examples,
             o.bypassed) for o in outcomes]


class TestServiceSnapshot:
    def test_warm_restart_serves_bit_identically(self, tmp_path):
        """The headline invariant: restored == never-stopped, bit for bit."""
        s1, d1 = _build_service()
        requests = d1.online_requests(30)
        first = _snap([s1.serve(r, load=0.2) for r in requests[:15]])
        rest_uninterrupted = _snap(
            [s1.serve(r, load=0.2) for r in requests[15:]]
        )

        s2, d2 = _build_service()
        requests2 = d2.online_requests(30)
        assert _snap([s2.serve(r, load=0.2) for r in requests2[:15]]) == first
        path = s2.save(tmp_path / "snap.json")
        restored = ICCacheService.restore(path)
        rest_restored = _snap(
            [restored.serve(r, load=0.2) for r in requests2[15:]]
        )
        assert rest_restored == rest_uninterrupted
        assert restored.stats == s1.stats
        assert restored.clock.now == s1.clock.now
        assert len(restored.cache) == len(s1.cache)
        assert restored.manager._next_id == s1.manager._next_id

    def test_batch_path_identical_after_restore(self, tmp_path):
        s1, d1 = _build_service()
        requests = d1.online_requests(24)
        s1.serve_batch(requests[:12], load=0.2)
        uninterrupted = _snap(s1.serve_batch(requests[12:], load=0.2))

        s2, d2 = _build_service()
        requests2 = d2.online_requests(24)
        s2.serve_batch(requests2[:12], load=0.2)
        restored = ICCacheService.restore(s2.save(tmp_path / "snap.json"))
        assert _snap(restored.serve_batch(requests2[12:], load=0.2)) == \
            uninterrupted

    def test_ablation_flags_roundtrip(self, tmp_path):
        service, _ = _build_service(bank=40)
        service.selector_enabled = False
        service.router_enabled = False
        restored = ICCacheService.restore(service.save(tmp_path / "s.json"))
        assert restored.selector_enabled is False
        assert restored.router_enabled is False

    @pytest.mark.parametrize("path", ["restore", "recover"])
    def test_an_index_of_another_dim_is_refused(self, path, tmp_path):
        """A manifest whose index is not the service's embedding dim wide
        is refused by name, by either restore path, instead of failing
        inside the first serve."""
        service, _ = _build_service(bank=40)
        if path == "restore":
            manifest = service.save(tmp_path / "s.json")
        else:
            manifest = Checkpointer(service, tmp_path / "ckpt").checkpoint()
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["cache"]["index"]["dim"] = 32
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        refusal = "snapshot index dim 32 != the service's embedding dim 64"
        with pytest.raises(ValueError, match=refusal):
            if path == "restore":
                ICCacheService.restore(manifest)
            else:
                Checkpointer.recover(tmp_path / "ckpt")

    def test_version_gate(self, tmp_path):
        service, _ = _build_service(bank=40)
        path = service.save(tmp_path / "s.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_snapshot(path)

    def test_v3_document_stores_the_pool_columnar(self, tmp_path):
        """The pool rides as bulk columns + string blobs (the layout format
        v3 introduced), with no per-example record list in the manifest."""
        service, _ = _build_service(bank=40)
        path = service.save(tmp_path / "s.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == SNAPSHOT_VERSION == 9
        cache = doc["cache"]
        assert "examples" not in cache
        # One index layout: the manifest names none.
        assert "sharded" not in cache and "cache_shards" not in doc["config"]
        # The index's knobs are module constants: neither config nor the
        # index state stores them.
        assert "index" not in doc["config"]
        assert set(cache["index"]) == {"dim", "nprobe", "seed", "keys",
                                       "centroids", "blocks", "churn",
                                       "trainings"}
        # The index stores each vector once, in its cluster blocks.
        assert "flat" not in cache["index"]
        assert len(cache["index"]["keys"]) == len(service.cache)
        # The byte ledger is the bookkeeping column, stored once.
        assert "total_bytes" not in cache
        assert "recorded_bytes" not in cache["examples_columns"]
        columns = cache["examples_columns"]
        assert columns["n"] == len(service.cache)
        # Bookkeeping columns reference sidecar arrays, strings are
        # offset-indexed blobs.
        assert "__extarray__" in json.dumps(columns["bookkeeping"])
        assert set(columns["ids"]) == {"offsets", "data"}

    def test_v3_restore_rebuilds_attached_table(self, tmp_path):
        """Restored examples are table-attached views: bookkeeping reads
        hit adopted columns and lifecycle passes (decay/eviction) work."""
        service, dataset = _build_service(bank=60)
        for request in dataset.online_requests(8):
            service.serve(request, load=0.2)
        restored = ICCacheService.restore(service.save(tmp_path / "s.json"))
        table = restored.cache.table
        assert len(table) == len(restored.cache)
        for original in service.cache:
            copy = restored.cache.get(original.example_id)
            assert copy.__dict__["_table"] is table
            assert copy.quality == original.quality
            assert copy.tokens == original.tokens
            assert copy.plaintext_bytes == original.plaintext_bytes
            assert copy.journal_row() == original.journal_row()
            assert copy.request.metadata == original.request.metadata
        assert restored.cache.total_bytes == service.cache.total_bytes \
            == sum(example.plaintext_bytes for example in restored.cache)

