"""Tests for batched search and the sharded index / sharded example cache."""

import numpy as np
import pytest

from repro.core.cache import ShardedExampleCache
from repro.core.example import Example
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.ivf import IVFIndex
from repro.vectorstore.sharded import ShardedIndex

from tests.conftest import make_request


def random_unit_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def clustered_unit_vectors(n, dim, n_topics=10, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = random_unit_vectors(n_topics, dim, seed=seed + 1)
    vecs = centers[np.arange(n) % n_topics] + rng.normal(0, noise, size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def keys_of(results):
    return [r.key for r in results]


class TestFlatSearchBatch:
    def test_batch_matches_looped_singles(self):
        index = FlatIndex(dim=8)
        for i, vec in enumerate(random_unit_vectors(50, 8)):
            index.add(i, vec)
        queries = random_unit_vectors(7, 8, seed=9)
        batch = index.search_batch(queries, k=5)
        for q, hits in zip(queries, batch):
            single = index.search(q, k=5)
            assert keys_of(hits) == keys_of(single)
            assert [h.score for h in hits] == pytest.approx(
                [s.score for s in single])

    def test_zero_query_row_gets_empty_list(self):
        index = FlatIndex(dim=4)
        index.add("a", [1, 0, 0, 0])
        queries = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
        results = index.search_batch(queries, k=1)
        assert keys_of(results[0]) == ["a"]
        assert results[1] == []

    def test_empty_index_and_k_zero(self):
        index = FlatIndex(dim=4)
        assert index.search_batch(np.eye(4), k=3) == [[], [], [], []]
        index.add("a", [1, 0, 0, 0])
        assert index.search_batch(np.eye(4), k=0) == [[], [], [], []]

    def test_dim_mismatch_raises(self):
        index = FlatIndex(dim=4)
        with pytest.raises(ValueError):
            index.search_batch(np.ones((2, 5)), k=1)

    def test_matrix_rows_align_with_keys(self):
        index = FlatIndex(dim=4)
        for i, vec in enumerate(random_unit_vectors(10, 4)):
            index.add(i, vec)
        index.remove(3)  # swap-with-last compaction
        rows = [index._key_to_row[key] for key in index.keys]
        assert np.allclose(
            index.matrix[rows],
            np.stack([index.get_vector(k) for k in index.keys]),
        )

    def test_matrix_is_read_only(self):
        index = FlatIndex(dim=4)
        index.add("a", [1, 0, 0, 0])
        with pytest.raises(ValueError):
            index.matrix[0, 0] = 5.0


class TestIVFSearchBatch:
    def test_batch_matches_looped_singles_trained(self):
        index = IVFIndex(dim=8, nprobe=3, min_train_size=32, seed=1)
        for i, vec in enumerate(random_unit_vectors(128, 8, seed=2)):
            index.add(i, vec)
        queries = random_unit_vectors(9, 8, seed=3)
        batch = index.search_batch(queries, k=4)
        assert index.is_trained
        for q, hits in zip(queries, batch):
            assert keys_of(hits) == keys_of(index.search(q, k=4))

    def test_batch_exact_while_untrained(self):
        index = IVFIndex(dim=8, min_train_size=1000)
        vecs = random_unit_vectors(20, 8)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        results = index.search_batch(vecs[:3], k=1)
        assert not index.is_trained
        assert [keys_of(r) for r in results] == [[0], [1], [2]]

    def test_batch_triggers_training(self):
        index = IVFIndex(dim=8, min_train_size=32)
        for i, vec in enumerate(random_unit_vectors(64, 8)):
            index.add(i, vec)
        index.search_batch(random_unit_vectors(2, 8, seed=5), k=1)
        assert index.is_trained


class TestShardedIndex:
    def test_fanout_matches_exact_flat_topk_small_n(self):
        # While every shard is below min_train_size, each shard searches
        # exactly, so the fan-out merge must equal exact flat top-k.
        dim = 8
        vecs = random_unit_vectors(40, dim, seed=4)
        flat = FlatIndex(dim)
        sharded = ShardedIndex(dim=dim, n_shards=4, min_train_size=64)
        for i, vec in enumerate(vecs):
            flat.add(i, vec)
            sharded.add(i, vec)
        for q in random_unit_vectors(10, dim, seed=5):
            assert keys_of(sharded.search(q, 5)) == keys_of(flat.search(q, 5))

    def test_batch_matches_looped_singles(self):
        dim = 8
        sharded = ShardedIndex(dim=dim, n_shards=3, nprobe=2,
                               min_train_size=16, seed=2)
        for i, vec in enumerate(clustered_unit_vectors(120, dim, seed=6)):
            sharded.add(i, vec)
        queries = random_unit_vectors(6, dim, seed=7)
        batch = sharded.search_batch(queries, k=5)
        for q, hits in zip(queries, batch):
            assert keys_of(hits) == keys_of(sharded.search(q, 5))

    def test_add_remove_contains_len(self):
        sharded = ShardedIndex(dim=4, n_shards=3)
        vecs = random_unit_vectors(12, 4)
        for i, vec in enumerate(vecs):
            sharded.add(i, vec)
        assert len(sharded) == 12
        assert sum(sharded.shard_sizes) == 12
        assert 5 in sharded
        sharded.remove(5)
        assert 5 not in sharded
        assert len(sharded) == 11
        with pytest.raises(KeyError):
            sharded.remove(5)

    def test_overwrite_same_key_keeps_one_copy(self):
        sharded = ShardedIndex(dim=4, n_shards=2)
        sharded.add("a", [1, 0, 0, 0])
        sharded.add("a", [0, 1, 0, 0])
        assert len(sharded) == 1
        assert sharded.search([0, 1, 0, 0], 1)[0].score == pytest.approx(1.0)

    def test_refused_overwrite_leaves_the_index_unchanged(self):
        """A NaN overwrite is refused by the shard before anything moves, so
        membership, length and saved state stay, and the key still goes."""
        sharded = ShardedIndex(dim=8, n_shards=3)
        for i, vec in enumerate(random_unit_vectors(10, 8)):
            sharded.add(i, vec)
        before = sharded.to_state()
        with pytest.raises(ValueError):
            sharded.add(3, np.full(8, np.nan))
        assert 3 in sharded and len(sharded) == 10
        np.testing.assert_equal(sharded.to_state(), before)
        sharded.remove(3)
        assert 3 not in sharded and len(sharded) == 9

    def test_get_vector_round_trip(self):
        sharded = ShardedIndex(dim=4, n_shards=2)
        sharded.add("a", [3.0, 0.0, 4.0, 0.0])
        assert np.linalg.norm(sharded.get_vector("a")) == pytest.approx(1.0)

    def test_custom_shard_fn_is_honoured(self):
        sharded = ShardedIndex(dim=4, n_shards=4, shard_fn=lambda key: key % 2)
        for i, vec in enumerate(random_unit_vectors(10, 4)):
            sharded.add(i, vec)
        assert sharded.shard_sizes[2:] == [0, 0]
        assert sharded.shard_of(4) == 0 and sharded.shard_of(7) == 1

    def test_recall_against_flat_on_clustered_data(self):
        dim = 16
        vecs = clustered_unit_vectors(400, dim, n_topics=10, seed=8)
        flat = FlatIndex(dim)
        sharded = ShardedIndex(dim=dim, n_shards=4, nprobe=4,
                               min_train_size=32, seed=3)
        for i, vec in enumerate(vecs):
            flat.add(i, vec)
            sharded.add(i, vec)
        hits = total = 0
        for i in range(0, 400, 20):
            truth = set(keys_of(flat.search(vecs[i], 5)))
            approx = set(keys_of(sharded.search(vecs[i], 5)))
            hits += len(truth & approx)
            total += 5
        assert hits / total >= 0.9

    def test_matching_cost_sums_shards(self):
        sharded = ShardedIndex(dim=4, n_shards=2, min_train_size=10**6)
        for i, vec in enumerate(random_unit_vectors(20, 4)):
            sharded.add(i, vec)
        # Untrained shards cost N_s comparisons each; fan-out sums them.
        assert sharded.matching_cost() == pytest.approx(20.0)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedIndex(dim=4, n_shards=0)


def _example(i: int, vec: np.ndarray) -> Example:
    request = make_request(request_id=f"r{i}", topic_latent=vec, dim=len(vec))
    return Example(
        example_id=f"ex{i}", request=request, response_text=f"answer {i}",
        embedding=vec, quality=0.8, source_model="large", source_cost=1.0,
    )


class TestShardedExampleCache:
    def test_add_search_remove(self):
        dim = 16
        cache = ShardedExampleCache(dim=dim, n_shards=4)
        vecs = random_unit_vectors(30, dim, seed=10)
        for i, vec in enumerate(vecs):
            cache.add(_example(i, vec))
        assert len(cache) == 30
        assert sum(cache.shard_sizes) == 30
        example, score = cache.search(vecs[7], 1)[0]
        assert example.example_id == "ex7"
        assert score == pytest.approx(1.0)
        cache.remove("ex7")
        assert "ex7" not in cache
        assert sum(cache.shard_sizes) == 29

    def test_search_batch_matches_looped_search(self):
        dim = 16
        cache = ShardedExampleCache(dim=dim, n_shards=3, seed=4)
        vecs = clustered_unit_vectors(90, dim, seed=11)
        for i, vec in enumerate(vecs):
            cache.add(_example(i, vec))
        queries = vecs[:5]
        batch = cache.search_batch(queries, k=4)
        for q, hits in zip(queries, batch):
            single = cache.search(q, k=4)
            assert [e.example_id for e, _ in hits] == \
                [e.example_id for e, _ in single]
