"""K-Means clustering (Lloyd's algorithm with k-means++ seeding).

Used by :class:`repro.vectorstore.ivf.IVFIndex` to partition the example pool
offline (paper section 4.1), both for full (re)trains and for the 2-means
splits of oversized clusters in the incremental maintenance path.

``fit`` is dtype-preserving: float32 training data stays float32 end to end
(no silent float64 upcast copy of the whole pool), centroids come back in the
input dtype, and per-cluster means accumulate in float64 before narrowing so
the result is the correctly-rounded mean regardless of storage precision.

``fit`` is also *exactly incremental*.  One (n, k) distance matrix lives
across the whole fit; k-means++ seeding fills it a column per seeded
centroid, and each later Lloyd iteration recomputes only the columns of
centroids whose value changed in the previous update, and only the means of
clusters that gained or lost a member.  Every (row, centroid) distance is the
same ``einsum`` reduction over ``dim`` whichever iteration or tile computes
it, and an unchanged centroid against an unchanged row is an unchanged
distance, so the result is bit-identical to recomputing everything every
iteration (``tests/kmeans_reference.py`` keeps that loop as the oracle).  The
only temporary is one ``_TILE_ELEMS`` difference scratch, whatever n and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng


@dataclass
class KMeansResult:
    """Fitted clustering: ``centroids`` is (k, dim), ``labels`` is (n,).

    ``distance_columns`` counts the centroid columns of the (n, k) distance
    matrix the fit computed, seeding included — its deterministic unit of
    work (a loop that recomputes everything pays ``(iterations + 1) * k``).
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    distance_columns: int = 0


class KMeans:
    """Plain Lloyd's iteration; deterministic given the seed."""

    def __init__(self, n_clusters: int, max_iter: int = 50, tol: float = 1e-6,
                 seed: int = 0) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, data: np.ndarray) -> KMeansResult:
        # Dtype-preserving and copy-free for contiguous float input: the
        # IVF index hands us its cached read-only storage view, and a
        # float64 coercion here would copy the entire pool per retrain.
        x = np.asarray(data)
        if x.dtype not in (np.float32, np.float64):
            x = np.asarray(data, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"expected non-empty 2-D data, got shape {x.shape}")
        n, dim = x.shape
        k = min(self.n_clusters, n)
        rng = make_rng(self.seed)

        dists = np.empty((n, k), dtype=x.dtype)
        scratch = np.empty(max(_TILE_ELEMS, dim), dtype=x.dtype)
        centroids = self._kmeanspp_init(x, k, rng, dists, scratch)
        # Seeding left every column current, so iteration 1 refreshes none.
        moved = np.empty(0, dtype=np.intp)
        distance_columns = k

        rows = np.arange(n)
        labels = np.zeros(n, dtype=int)
        previous = None
        inertia = float("inf")
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            _refresh_columns(x, centroids, moved, dists, scratch)
            distance_columns += moved.size
            labels = np.argmin(dists, axis=1)
            closest = dists[rows, labels]
            new_inertia = float(closest.sum())

            # A cluster whose member set is unchanged keeps its mean: same
            # rows in the same order through the same reduction.  The first
            # update replaces seeds (not means), so it recomputes them all.
            occupied = np.bincount(labels, minlength=k) > 0
            if previous is None:
                redo = occupied
            else:
                switched = labels != previous
                redo = np.zeros(k, dtype=bool)
                redo[labels[switched]] = True
                redo[previous[switched]] = True
                redo &= occupied
            previous = labels

            new_centroids = centroids.copy()
            if not occupied.all():
                # Re-seed empty clusters on the farthest point, the standard
                # fix for centroid collapse (every time: that point moves).
                new_centroids[~occupied] = x[int(np.argmax(closest))]
            for c in np.flatnonzero(redo):
                # Accumulate the mean in float64, then narrow once: the
                # stored centroid is the correctly-rounded mean even for
                # float32 members.
                new_centroids[c] = x[labels == c].mean(axis=0,
                                                       dtype=np.float64)
            # ``!=`` rather than a bit compare: -0.0 vs 0.0 yields the same
            # distances, and NaN compares unequal, which only over-refreshes.
            moved = np.flatnonzero((new_centroids != centroids).any(axis=1))
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if abs(inertia - new_inertia) <= self.tol or shift <= self.tol:
                inertia = new_inertia
                break
            inertia = new_inertia

        return KMeansResult(centroids=centroids, labels=labels, inertia=inertia,
                            iterations=iterations,
                            distance_columns=distance_columns)

    @staticmethod
    def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator,
                       dists: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling.

        Column ``c`` of ``dists`` receives the distances to seed ``c`` — the
        D^2 weights need them anyway, and they are exactly what the first
        Lloyd iteration would compute.
        """
        n = x.shape[0]
        centroids = np.empty((k, x.shape[1]), dtype=x.dtype)
        columns = np.arange(k)
        first = int(rng.integers(0, n))
        centroids[0] = x[first]
        _refresh_columns(x, centroids, columns[:1], dists, scratch)
        closest_sq = dists[:, 0].copy()
        for c in range(1, k):
            total = float(closest_sq.sum())
            if total <= 0:
                # All points coincide with existing centroids: pick uniformly.
                idx = int(rng.integers(0, n))
            else:
                # float64 probabilities: Generator.choice checks they sum to
                # 1 within a tolerance float32 rounding can miss.
                probs = closest_sq.astype(np.float64)
                probs /= probs.sum()
                idx = int(rng.choice(n, p=probs))
            centroids[c] = x[idx]
            _refresh_columns(x, centroids, columns[c : c + 1], dists, scratch)
            np.minimum(closest_sq, dists[:, c], out=closest_sq)
        return centroids


#: Elements of the (rows, centroids, dim) difference scratch: 256 KiB of
#: float32, 512 KiB of float64 — written by the subtract and read straight
#: back by the reduction, so it has to stay L2-resident to be worth reusing.
_TILE_ELEMS = 1 << 16


def _refresh_columns(x: np.ndarray, centroids: np.ndarray, cols: np.ndarray,
                     dists: np.ndarray, scratch: np.ndarray) -> None:
    """Recompute ``dists[:, cols]``: squared Euclidean distance of every row
    of ``x`` to ``centroids[cols]``.

    Computed as diff-square-sum (not the ``||x||^2 - 2x.c + ||c||^2``
    expansion, whose cancellation changes results bit-for-bit) in
    row x centroid tiles that each fit ``scratch``.  Each (row, centroid)
    pair reduces independently over ``dim``, so any tiling performs the
    identical IEEE operations as one (n, k, dim) shot.
    """
    n, dim = x.shape
    pairs = max(1, scratch.size // max(1, dim))
    for j in range(0, cols.size, pairs):
        tile_cols = cols[j : j + pairs]
        tile_centroids = centroids[tile_cols]
        w = tile_cols.size
        height = pairs // w
        for i in range(0, n, height):
            chunk = x[i : i + height, None, :]
            h = chunk.shape[0]
            diffs = scratch[: h * w * dim].reshape(h, w, dim)
            # Broadcast-copy then subtract in place: the in-place pass runs
            # over w * dim contiguous elements per row, where a broadcast
            # subtract would restart its inner loop every dim elements.
            diffs[...] = chunk
            np.subtract(diffs, tile_centroids, out=diffs)
            dists[i : i + h, tile_cols] = np.einsum("nkd,nkd->nk", diffs, diffs)
