"""Unit and property tests for the vector store (flat, k-means, IVF)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectorstore import ivf as ivf_module
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.ivf import IVFIndex, optimal_cluster_count
from repro.vectorstore.kmeans import KMeans


def random_unit_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def lone(index, query, k):
    """A flat store's lone query: its batch of one."""
    return index.search_batch([query], k)[0]


class TestFlatIndex:
    def test_add_and_search_exact_match(self):
        index = FlatIndex(dim=4)
        index.add("a", [1, 0, 0, 0])
        index.add("b", [0, 1, 0, 0])
        results = lone(index, [1, 0, 0, 0], k=1)
        assert results[0].key == "a"
        assert results[0].score == pytest.approx(1.0)

    def test_search_ordering(self):
        index = FlatIndex(dim=2)
        index.add("close", [1.0, 0.1])
        index.add("far", [0.1, 1.0])
        results = lone(index, [1.0, 0.0], k=2)
        assert [r.key for r in results] == ["close", "far"]
        assert results[0].score >= results[1].score

    def test_k_larger_than_size(self):
        index = FlatIndex(dim=2)
        index.add("only", [1.0, 0.0])
        assert len(lone(index, [1.0, 0.0], k=10)) == 1

    def test_k_zero_and_empty(self):
        index = FlatIndex(dim=2)
        assert lone(index, [1, 0], k=0) == []
        assert lone(index, [1, 0], k=5) == []

    def test_remove_swaps_correctly(self):
        index = FlatIndex(dim=2)
        index.add("a", [1.0, 0.0])
        index.add("b", [0.0, 1.0])
        index.add("c", [0.7, 0.7])
        index.remove("a")
        assert "a" not in index
        assert len(index) == 2
        keys = {r.key for r in lone(index, [0.0, 1.0], k=2)}
        assert keys == {"b", "c"}

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            FlatIndex(dim=2).remove("nope")

    def test_an_existing_key_is_refused(self):
        index = FlatIndex(dim=2)
        index.add("a", [1.0, 0.0])
        before = index.to_state(), index.version
        with pytest.raises(KeyError):
            index.add("a", [0.0, 1.0])
        np.testing.assert_equal((index.to_state(), index.version), before)
        assert lone(index, [1.0, 0.0], 1)[0].score == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            FlatIndex(dim=2).add("z", [0.0, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("vector", [[np.nan, 1.0], [np.inf, 1.0],
                                        [1e200, 1e200]],
                             ids=["nan", "inf", "norm-overflows"])
    def test_non_finite_norm_rejected(self, vector):
        index = FlatIndex(dim=2)
        with pytest.raises(ValueError, match="non-finite"):
            index.add("z", vector)
        assert len(index) == 0 and "z" not in index

    def test_zero_query_returns_empty(self):
        index = FlatIndex(dim=2)
        index.add("a", [1.0, 0.0])
        assert lone(index, [0.0, 0.0], 1) == []

    def test_stored_vectors_normalized(self):
        index = FlatIndex(dim=3)
        index.add("a", [3.0, 0.0, 4.0])
        assert np.linalg.norm(index.get_vector("a")) == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_search_scores_descending(self, n, k):
        index = FlatIndex(dim=8)
        for i, vec in enumerate(random_unit_vectors(n, 8, seed=n)):
            index.add(i, vec)
        results = lone(index, random_unit_vectors(1, 8, seed=99)[0], k=k)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        assert len(results) == min(k, n)


class TestKMeans:
    def test_separable_clusters_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(loc=(0, 0), scale=0.05, size=(30, 2))
        b = rng.normal(loc=(10, 10), scale=0.05, size=(30, 2))
        data = np.vstack([a, b])
        result = KMeans(n_clusters=2, seed=1).fit(data)
        labels_a = set(result.labels[:30])
        labels_b = set(result.labels[30:])
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_k_capped_at_n(self):
        data = np.eye(3)
        result = KMeans(n_clusters=10, seed=0).fit(data)
        assert result.centroids.shape[0] == 3

    def test_labels_in_range(self):
        data = np.random.default_rng(1).normal(size=(40, 4))
        result = KMeans(n_clusters=5, seed=0).fit(data)
        assert result.labels.min() >= 0
        assert result.labels.max() < 5

    def test_deterministic_given_seed(self):
        data = np.random.default_rng(2).normal(size=(50, 3))
        r1 = KMeans(n_clusters=4, seed=9).fit(data)
        r2 = KMeans(n_clusters=4, seed=9).fit(data)
        assert np.allclose(r1.centroids, r2.centroids)
        assert (r1.labels == r2.labels).all()

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.empty((0, 3)))

    def test_inertia_decreases_with_more_clusters(self):
        data = np.random.default_rng(3).normal(size=(60, 4))
        inertia_2 = KMeans(n_clusters=2, seed=0).fit(data).inertia
        inertia_8 = KMeans(n_clusters=8, seed=0).fit(data).inertia
        assert inertia_8 <= inertia_2

    def test_identical_points(self):
        data = np.ones((10, 3))
        result = KMeans(n_clusters=3, seed=0).fit(data)
        assert result.inertia == pytest.approx(0.0)


class TestOptimalClusterCount:
    def test_sqrt_rule(self):
        assert optimal_cluster_count(100) == 10
        assert optimal_cluster_count(10_000) == 100

    def test_small_pools(self):
        assert optimal_cluster_count(0) == 1
        assert optimal_cluster_count(1) == 1

    @given(st.integers(min_value=1, max_value=10**6))
    def test_minimizes_k_plus_n_over_k(self, n):
        k = optimal_cluster_count(n)
        cost = k + n / k
        for other in (max(1, k - 1), k + 1):
            assert cost <= other + n / other + 1e-6


class TestIVFIndex:
    def test_exact_while_small(self):
        index = IVFIndex(dim=4)
        for i, vec in enumerate(random_unit_vectors(20, 4)):
            index.add(i, vec)
        assert not index.is_trained
        query = index.get_vector(7)
        assert index.search(query, 1)[0].key == 7

    def test_trains_after_threshold(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 32)
        index = IVFIndex(dim=8)
        for i, vec in enumerate(random_unit_vectors(64, 8)):
            index.add(i, vec)
        index.search(random_unit_vectors(1, 8, seed=5)[0], 1)
        assert index.is_trained
        assert index.n_clusters == optimal_cluster_count(64)

    def test_recall_against_flat(self):
        dim = 16
        vectors = random_unit_vectors(400, dim, seed=11)
        flat = FlatIndex(dim)
        ivf = IVFIndex(dim=dim, nprobe=4, seed=1)
        for i, vec in enumerate(vectors):
            flat.add(i, vec)
            ivf.add(i, vec)
        queries = random_unit_vectors(30, dim, seed=12)
        hits = 0
        for q in queries:
            truth = {r.key for r in lone(flat, q, 5)}
            approx = {r.key for r in ivf.search(q, 5)}
            hits += len(truth & approx)
        recall = hits / (30 * 5)
        assert recall >= 0.5  # nprobe=4 of ~20 clusters on random data

    def test_recall_high_on_clustered_data(self):
        # The cache's real workload is topic-clustered; recall should be high.
        rng = np.random.default_rng(3)
        centers = random_unit_vectors(10, 16, seed=4)
        vectors = []
        for i in range(300):
            c = centers[i % 10]
            v = c + rng.normal(0, 0.05, size=16)
            vectors.append(v / np.linalg.norm(v))
        flat = FlatIndex(16)
        ivf = IVFIndex(dim=16, nprobe=2, seed=2)
        for i, vec in enumerate(vectors):
            flat.add(i, vec)
            ivf.add(i, vec)
        hits = total = 0
        for i in range(0, 300, 10):
            truth = {r.key for r in lone(flat, vectors[i], 5)}
            approx = {r.key for r in ivf.search(vectors[i], 5)}
            hits += len(truth & approx)
            total += 5
        assert hits / total >= 0.9

    def test_add_after_training_assigns_cluster(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 32)
        index = IVFIndex(dim=8, nprobe=32)
        for i, vec in enumerate(random_unit_vectors(64, 8)):
            index.add(i, vec)
        index.search(random_unit_vectors(1, 8)[0], 1)  # trigger training
        new_vec = random_unit_vectors(1, 8, seed=77)[0]
        index.add("new", new_vec)
        assert index.search(new_vec, 1)[0].key == "new"

    def test_remove_after_training(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 16)
        index = IVFIndex(dim=8)
        vectors = random_unit_vectors(32, 8)
        for i, vec in enumerate(vectors):
            index.add(i, vec)
        index.search(vectors[0], 1)
        index.remove(3)
        assert 3 not in index
        keys = {r.key for r in index.search(vectors[3], 32)}
        assert 3 not in keys

    def test_matching_cost_reflects_sqrt_tradeoff(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 16)
        index = IVFIndex(dim=8, nprobe=1)
        for i, vec in enumerate(random_unit_vectors(256, 8)):
            index.add(i, vec)
        index.search(random_unit_vectors(1, 8)[0], 1)
        # K + N/K at K = sqrt(256) = 16 -> 32, far below flat's 256.
        assert index.matching_cost() == pytest.approx(32.0, rel=0.3)
        assert index.matching_cost() < 256

    def test_retrains_after_churn(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 16)
        monkeypatch.setattr(ivf_module, "RETRAIN_THRESHOLD", 0.25)
        index = IVFIndex(dim=8, seed=0)
        vecs = random_unit_vectors(40, 8)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        index.search(vecs[0], 1)
        first_trainings = index.trainings
        for i in range(40, 60):
            index.add(i, random_unit_vectors(1, 8, seed=i)[0])
        index.search(vecs[0], 1)
        assert index.trainings > first_trainings

    @pytest.mark.parametrize("bad", [np.zeros(8), np.full(8, np.nan)],
                             ids=["zero", "nan"])
    @pytest.mark.parametrize("n", [10, 100], ids=["untrained", "trained"])
    def test_a_refused_add_leaves_the_index_unchanged(self, n, bad):
        """A key already held (``KeyError``, whatever its vector) and a
        vector the index refuses (``ValueError``) leave the same keys,
        length, churn and saved state, trained or not."""
        index = IVFIndex(dim=8)
        vecs = random_unit_vectors(n, 8)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        index.search(vecs[0], 1)
        assert index.is_trained == (n >= 64)
        before = index.to_state()
        with pytest.raises(KeyError):
            index.add(3, vecs[4])
        with pytest.raises(KeyError):
            index.add(3, bad)
        with pytest.raises(ValueError):
            index.add("new", bad)
        assert 3 in index and "new" not in index and len(index) == n
        np.testing.assert_equal(index.to_state(), before)  # keys, churn, rows
        index.remove(3)
        assert 3 not in index and len(index) == n - 1


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
            assert hits == lone(index, q, k=5)     # bit for bit

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
    def test_batch_matches_looped_singles_trained(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 32)
        index = IVFIndex(dim=8, nprobe=3, seed=1)
        for i, vec in enumerate(random_unit_vectors(128, 8, seed=2)):
            index.add(i, vec)
        queries = random_unit_vectors(9, 8, seed=3)
        batch = index.search_batch(queries, k=4)
        assert index.is_trained
        for q, hits in zip(queries, batch):
            assert keys_of(hits) == keys_of(index.search(q, k=4))

    def test_batch_exact_while_untrained(self):
        index = IVFIndex(dim=8)
        vecs = random_unit_vectors(20, 8)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        results = index.search_batch(vecs[:3], k=1)
        assert not index.is_trained
        assert [keys_of(r) for r in results] == [[0], [1], [2]]

    def test_batch_triggers_training(self, monkeypatch):
        monkeypatch.setattr(ivf_module, "MIN_TRAIN_SIZE", 32)
        index = IVFIndex(dim=8)
        for i, vec in enumerate(random_unit_vectors(64, 8)):
            index.add(i, vec)
        index.search_batch(random_unit_vectors(2, 8, seed=5), k=1)
        assert index.is_trained
