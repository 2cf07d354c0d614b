"""Float32 storage determinism and the scale-gated retrain path.

The PR-3 equivalence suite (``test_vectorstore_equivalence.py``) pins the
vectorized trained search against a per-key reference on fixed pools; this
file generalizes those pins into Hypothesis properties over adversarial
pools (bit-exact duplicates, varying dims/sizes — ``tests/strategies/
vectors.py``) and covers what the float32 overhaul added:

* float32 block scores are bit-equal to a per-key float32 loop, and within
  narrowing tolerance of exact float64 cosine;
* exact ties — bit-identical duplicate vectors — keep loop-order
  tie-breaking wherever they sit in the blocks, including the ``k == 1``
  argmax fast path;
* a cluster block's resident bytes are its float32 rows and nothing else,
  through append, remove and capacity growth;
* incremental split/merge retrains hold recall@5 close to a global
  K-Means retrain under the maintenance-tick churn regime;
* ``KMeans.fit`` consumes the index's cached storage view without copying.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.vectorstore.flat import STORAGE_DTYPE, FlatIndex
from repro.vectorstore.ivf import IVFIndex, _ClusterBlock
from repro.vectorstore.kmeans import KMeans

from tests.clustered_pool import clustered_vectors
from tests.search_reference import reference_search
from tests.strategies import (
    DETERMINISM,
    STANDARD,
    VectorPool,
    vector_pools,
)

DIM = 32


def build_index(pool: VectorPool, **kwargs) -> IVFIndex:
    index = IVFIndex(dim=pool.dim, nprobe=kwargs.pop("nprobe", 3),
                     min_train_size=64, seed=0, **kwargs)
    for row, vec in enumerate(pool.vectors):
        index.add(row, vec)
    index.search(pool.vectors[0], 1)  # settle the lazy train
    assert index.is_trained
    return index


class TestFloat32SearchProperties:
    @given(pool=vector_pools())
    @settings(**DETERMINISM)
    def test_trained_search_matches_per_key_reference(self, pool):
        index = build_index(pool)
        for query in pool.queries(4):
            for k in (1, 5, 12):
                got = index.search(query, k)
                want = reference_search(index, query, k)
                assert [(r.key, r.score) for r in got] \
                    == [(r.key, r.score) for r in want]

    @given(pool=vector_pools(min_duplicates=3))
    @settings(**DETERMINISM)
    def test_duplicate_rows_score_bit_identically(self, pool):
        """Bit-exact duplicate vectors must get bit-equal scores regardless
        of which block row (or cluster block) they landed in, and tied
        results must appear in reference loop order."""
        index = build_index(pool, nprobe=6)
        for query in pool.queries(3):
            hits = index.search(query, pool.n)
            by_key = {r.key: r.score for r in hits}
            for src, rows in pool.duplicate_groups.items():
                returned = [row for row in rows if row in by_key]
                scores = {by_key[row] for row in returned}
                assert len(scores) <= 1, \
                    f"duplicates of row {src} scored differently: {scores}"

    @given(pool=vector_pools())
    @settings(**STANDARD)
    def test_float32_scores_track_float64_cosine(self, pool):
        """Storage narrows float64 input to float32: scores agree with the
        exact float64 cosine to narrowing tolerance (the documented place
        float32 is *allowed* to differ — ordering of near-ties within that
        tolerance may legitimately change vs a float64 index)."""
        index = build_index(pool)
        for query in pool.queries(3):
            q = query / np.linalg.norm(query)
            for hit in index.search(query, 8):
                exact = float(
                    np.asarray(pool.vectors[hit.key], dtype=np.float64) @ q
                )
                assert abs(hit.score - exact) < 5e-6


def _clustered(n: int, seed: int) -> np.ndarray:
    return clustered_vectors(n, DIM, n_topics=24, seed=seed)


class TestClusterBlockBytes:
    def test_nbytes_is_the_float32_rows_through_append_remove_growth(self):
        """``IVFIndex.nbytes`` (and ``index_bytes_per_example`` on top of
        it) sums this: capacity x dim x 4, with no second copy of the rows
        riding along."""
        rows = _clustered(40, seed=6).astype(STORAGE_DTYPE)
        block = _ClusterBlock(DIM, keys=list(range(5)), vectors=rows[:5])
        assert block.nbytes == 5 * DIM * 4
        capacities = set()
        for key in range(5, 40):                    # append through growth
            block.append(key, rows[key])
            capacity = block._vectors.shape[0]
            capacities.add(capacity)
            assert capacity >= len(block)
            assert block.nbytes == capacity * DIM * 4
        assert len(capacities) > 2, "capacity never doubled"
        for key in range(0, 40, 3):                 # swap-delete keeps capacity
            block.remove(key)
            assert block.nbytes == capacity * DIM * 4
        assert block.view().nbytes == len(block) * DIM * 4


class TestIncrementalRetrainRecall:
    N = 3000
    TICKS = 5

    def _build(self, incremental_min_n: int) -> IVFIndex:
        index = IVFIndex(dim=DIM, nprobe=8, min_train_size=64, seed=0,
                         incremental_min_n=incremental_min_n)
        base = _clustered(self.N, seed=2)
        for row, vec in enumerate(base):
            index.add(row, vec)
        index.search(base[0], 1)  # first train is global either way
        spare = _clustered(self.N, seed=3)
        si = 0
        for tick in range(self.TICKS):  # the bench's 1%-churn tick regime
            m = self.N // 100
            for i in range(m):
                index.add(("churn", tick, i), spare[si])
                si += 1
            for i in range(0, m, 2):
                index.remove(("churn", tick, i))
            assert index.retrain()
        return index

    @staticmethod
    def _recall_vs_flat(index: IVFIndex, queries: np.ndarray) -> float:
        flat = FlatIndex(index.dim)
        for key in index._flat.keys:
            flat.add(key, index.get_vector(key))
        hits = sum(
            len({r.key for r in index.search(q, 5)}
                & {r.key for r in flat.search(q, 5)})
            for q in queries
        )
        return hits / (queries.shape[0] * 5)

    def test_incremental_recall_stays_close_to_global(self):
        incremental = self._build(incremental_min_n=1000)
        control = self._build(incremental_min_n=10**9)
        assert incremental.trainings == control.trainings == self.TICKS + 1

        queries = _clustered(40, seed=4)
        r_inc = self._recall_vs_flat(incremental, queries)
        r_glo = self._recall_vs_flat(control, queries)
        # Measured on this seeded scenario: 0.880 incremental, 0.920 global.
        assert r_inc >= r_glo - 0.05
        assert r_inc >= 0.85

    def test_incremental_path_splits_and_retires_clusters(self):
        index = self._build(incremental_min_n=1000)
        control = self._build(incremental_min_n=10**9)
        # The split/merge schedule must actually maintain cluster count near
        # sqrt(N), not let it drift monotonically.
        assert 0.5 * control.n_clusters <= index.n_clusters \
            <= 2.0 * control.n_clusters


class TestIncrementalRetrainBookkeeping:
    """The O(1)-per-tick bookkeeping behind the N=1M amortization gate.

    Incremental retrain no longer rebuilds the full key→cluster map or
    re-reads every block to recenter; these invariants pin what the cheap
    paths must preserve instead.
    """

    def _churned(self) -> IVFIndex:
        return TestIncrementalRetrainRecall()._build(incremental_min_n=1000)

    def test_key_map_matches_blocks_after_split_retire_ticks(self):
        index = self._churned()
        expected = {
            key: ci
            for ci, block in enumerate(index._blocks)
            for key in block.keys
        }
        assert index._key_to_cluster == expected
        # ...and stays serviceable: every key removable through the map.
        for key in list(index._flat.keys)[:50]:
            index.remove(key)
        assert len(index._flat) == len(index._key_to_cluster)

    def test_running_sum_tracks_rows_through_churn(self):
        index = self._churned()
        for block in index._blocks:
            fresh = block.view().sum(axis=0, dtype=np.float64)
            np.testing.assert_allclose(block.running_sum, fresh,
                                       rtol=1e-9, atol=1e-7)

    def test_fresh_block_sum_is_bitwise_pairwise_reduction(self):
        index = self._churned()
        state = index.to_state()
        for saved, block in zip(state["blocks"], index._blocks):
            # The serialized sum is the maintained one, bit-for-bit...
            assert np.array_equal(saved["sum"], block.running_sum)
        restored = IVFIndex.from_state(state)
        for a, b in zip(index._blocks, restored._blocks):
            # ...and restore inherits it exactly (no recompute drift).
            assert np.array_equal(a.running_sum, b.running_sum)


class TestKMeansConsumesStorageView:
    def test_global_retrain_fits_on_the_cached_view_no_copy(self, monkeypatch):
        pool = _clustered(300, seed=5)
        index = IVFIndex(dim=DIM, min_train_size=64, seed=0)
        for row, vec in enumerate(pool):
            index.add(row, vec)

        seen: list[np.ndarray] = []
        original_fit = KMeans.fit

        def spy(self, data):
            seen.append(data)
            return original_fit(self, data)

        monkeypatch.setattr(KMeans, "fit", spy)
        assert index.retrain()
        assert seen, "retrain must call KMeans.fit"
        trained_on = seen[0]
        # The exact cached storage view: float32, zero-copy into the flat
        # matrix — not np.array(matrix) (which doubled peak memory).
        assert trained_on.dtype == STORAGE_DTYPE
        assert trained_on.base is index._flat._vectors
        assert not trained_on.flags.owndata

    def test_fit_preserves_float32_without_upcast(self):
        data = np.random.default_rng(0).normal(
            size=(200, 8)).astype(np.float32)
        result = KMeans(n_clusters=4, seed=0).fit(data)
        assert result.centroids.dtype == np.float32
        assert result.labels.shape == (200,)

    def test_fit_still_accepts_and_upcasts_integer_data(self):
        data = np.arange(40, dtype=np.int64).reshape(20, 2)
        result = KMeans(n_clusters=2, seed=0).fit(data)
        assert result.centroids.dtype == np.float64
