"""``KMeans.fit`` is the reference Lloyd loop, bit for bit.

The incremental, tiled ``fit`` skips work (unmoved centroid columns,
untouched cluster means) but never changes arithmetic, so every result field
must equal :func:`tests.kmeans_reference._reference_fit` exactly — and an
``IVFIndex`` retrained through either must serialize to the same bytes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectorstore import kmeans
from repro.vectorstore.ivf import IVFIndex
from repro.vectorstore.kmeans import KMeans
from tests.kmeans_reference import _reference_fit
from tests.strategies import DETERMINISM, KMeansCase, kmeans_cases


def assert_same_fit(data: np.ndarray, k: int, seed: int = 0,
                    tile: int = kmeans._TILE_ELEMS, max_iter: int = 50):
    model = KMeans(n_clusters=k, seed=seed, max_iter=max_iter)
    with mock.patch.object(kmeans, "_TILE_ELEMS", tile):
        got = model.fit(data)
    want = _reference_fit(model, data)
    assert got.centroids.dtype == want.centroids.dtype
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    # repr, not ==: a NaN inertia must match a NaN inertia.
    assert repr(got.inertia) == repr(want.inertia)
    assert got.iterations == want.iterations
    return got


@settings(**DETERMINISM)
@given(case=kmeans_cases(), tile=st.sampled_from([1, 48, 1 << 16]))
def test_fit_equals_reference(case: KMeansCase, tile: int):
    # tile=1 forces one (row, centroid) pair per tile and tile=48 a few, so
    # small cases cross row-tile AND centroid-tile boundaries.
    assert_same_fit(case.data, case.k, seed=case.seed, tile=tile)


def _clustered(n: int, dim: int, seed: int, dtype=np.float32) -> np.ndarray:
    return KMeansCase(seed, n, dim, k=0, distinct=n, dtype=dtype).data


class TestNamedEdges:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_realistic_pool_skips_most_columns(self, dtype):
        data = _clustered(900, 32, seed=3, dtype=dtype)
        got = assert_same_fit(data, 30)
        assert got.iterations > 2
        # Seeding pays k columns; a full recompute pays k more per iteration.
        assert 30 <= got.distance_columns < 30 * got.iterations

    def test_all_rows_identical_takes_uniform_seeding_branch(self):
        data = np.tile(np.float32([[0.25, -1.5, 3.0]]), (20, 1))
        got = assert_same_fit(data, 4)
        assert got.inertia == 0.0

    def test_several_empty_clusters_reseed_in_one_iteration(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(3, 6)).astype(np.float32)
        data = points[rng.integers(0, 3, size=40)]
        got = assert_same_fit(data, 7)
        # Coinciding centroids lose every argmin tie to their first twin.
        assert np.unique(got.labels).size <= 7 - 2

    @pytest.mark.parametrize("n,k", [(9, 9), (5, 12), (1, 1), (1, 3)])
    def test_k_at_or_above_n(self, n, k):
        got = assert_same_fit(_clustered(n, 4, seed=n + k), k)
        assert got.centroids.shape[0] == n

    def test_dim_one(self):
        assert_same_fit(_clustered(64, 1, seed=2, dtype=np.float64), 5)

    def test_many_centroid_tiles(self):
        # 64-element scratch at dim 16 holds 4 pairs: 40 centroids need ten
        # centroid tiles, each of height 1.
        assert_same_fit(_clustered(120, 16, seed=5), 40, tile=64)

    def test_dim_larger_than_tile(self):
        assert_same_fit(_clustered(30, 16, seed=6), 4, tile=5)

    def test_single_iteration(self):
        assert_same_fit(_clustered(80, 8, seed=7), 6, max_iter=1)

    def test_integer_input_upcasts(self):
        data = np.arange(60, dtype=np.int64).reshape(30, 2) % 7
        assert_same_fit(data, 3)


def _canonical(value):
    """``to_state()`` output with arrays replaced by (dtype, shape, bytes)."""
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _retrained_three_times(incremental_min_n: int) -> tuple[dict, list[int]]:
    """Index state after three forced retrains with churn between them, plus
    the ``n_clusters`` of every ``KMeans.fit`` the retrains issued."""
    fits: list[int] = []
    fit = KMeans.fit

    def spy(self, data):
        fits.append(self.n_clusters)
        return fit(self, data)

    pool = _clustered(400, 8, seed=9)
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    rng = np.random.default_rng(10)
    index = IVFIndex(dim=8, nprobe=3, min_train_size=64, seed=4,
                     incremental_min_n=incremental_min_n)
    with mock.patch.object(KMeans, "fit", spy):
        for row, vec in enumerate(pool):
            index.add(row, vec)
        for round_ in range(3):
            # Lopsided churn: drop a spread of rows and pile new ones around
            # one existing row, so the split pass finds an oversized cluster.
            for row in range(round_, 400, 9):
                index.remove(row)
            crowd = pool[200 + round_] + rng.normal(0.0, 0.05, size=(60, 8))
            for i, vec in enumerate(crowd):
                index.add(("crowd", round_, i), vec)
            assert index.retrain()
    assert index.trainings == 3
    return index.to_state(), fits


@pytest.mark.parametrize("incremental_min_n,split_path",
                         [(10_000, False), (200, True)])
def test_ivf_state_bytes_equal_with_reference_fit(incremental_min_n,
                                                  split_path, monkeypatch):
    state, fits = _retrained_three_times(incremental_min_n)
    monkeypatch.setattr(KMeans, "fit", _reference_fit)
    reference_state, reference_fits = _retrained_three_times(incremental_min_n)
    assert fits == reference_fits
    # Global path: three sqrt(n)-cluster fits.  Split path: one global fit,
    # then only 2-means splits.
    assert (2 in fits) == split_path
    assert sum(k != 2 for k in fits) == (1 if split_path else 3)
    assert _canonical(state) == _canonical(reference_state)
