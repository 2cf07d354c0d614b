"""The pre-tiling ``KMeans.fit``, kept verbatim as the bit-equality oracle.

:func:`_reference_fit` is the Lloyd loop :class:`repro.vectorstore.kmeans.KMeans`
shipped before the incremental, cache-tiled rewrite: every iteration
recomputes the full (n, k) distance matrix through an (n, k, dim) broadcast
temporary and re-averages every cluster.  ``KMeans.fit`` must return the same
centroids, labels, inertia and iteration count bit for bit
(``tests/test_vectorstore_kmeans_exact.py``); ``benchmarks/perf_harness.py``
times it as the in-run speedup denominator.

It takes the ``KMeans`` instance as ``self`` so tests can monkeypatch it in
as ``KMeans.fit``, and reads ``MAX_ITER`` and ``TOL`` from
:mod:`repro.vectorstore.kmeans` when it runs, so a patched constant holds
for both.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.vectorstore import kmeans
from repro.vectorstore.kmeans import KMeans, KMeansResult

_CHUNK_ELEMS = 16_000_000


def _reference_fit(self: KMeans, data: np.ndarray) -> KMeansResult:
    x = np.asarray(data)
    if x.dtype not in (np.float32, np.float64):
        x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"expected non-empty 2-D data, got shape {x.shape}")
    n = x.shape[0]
    k = min(self.n_clusters, n)
    rng = make_rng(self.seed)

    centroids = _kmeanspp_init(x, k, rng)
    labels = np.zeros(n, dtype=int)
    inertia = float("inf")
    iterations = 0
    for iterations in range(1, kmeans.MAX_ITER + 1):
        dists = _sq_distances(x, centroids)
        labels = np.argmin(dists, axis=1)
        new_inertia = float(dists[np.arange(n), labels].sum())

        new_centroids = centroids.copy()
        for c in range(k):
            members = x[labels == c]
            if members.shape[0] > 0:
                new_centroids[c] = members.mean(axis=0, dtype=np.float64)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                new_centroids[c] = x[farthest]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        if abs(inertia - new_inertia) <= kmeans.TOL or shift <= kmeans.TOL:
            inertia = new_inertia
            break
        inertia = new_inertia

    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia,
                        iterations=iterations)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=x.dtype)
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    closest_sq = _sq_distances(x, centroids[:1]).reshape(-1)
    for c in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0:
            idx = int(rng.integers(0, n))
        else:
            probs = closest_sq.astype(np.float64)
            probs /= probs.sum()
            idx = int(rng.choice(n, p=probs))
        centroids[c] = x[idx]
        new_sq = _sq_distances(x, centroids[c : c + 1]).reshape(-1)
        closest_sq = np.minimum(closest_sq, new_sq)
    return centroids


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    n, dim = x.shape
    k = centroids.shape[0]
    out = np.empty((n, k), dtype=x.dtype)
    step = max(1, _CHUNK_ELEMS // max(1, k * dim))
    for start in range(0, n, step):
        chunk = x[start : start + step]
        diffs = chunk[:, None, :] - centroids[None, :, :]
        out[start : start + step] = np.einsum("nkd,nkd->nk", diffs, diffs)
    return out
