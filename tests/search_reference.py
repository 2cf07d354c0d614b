"""The per-key trained-path search loop, kept as the exactness oracle.

:func:`reference_search` is what :meth:`IVFIndex.search` did before the
contiguous cluster-major layout: probe clusters in descending centroid
score, walk each block's rows in storage order, score every row on its own
with a float32 einsum (the same sequential per-row accumulation the block
einsum performs), stable-sort by score.  The vectorized path — and its
``k == 1`` argmax fast path — must return the same keys in the same order
with the same scores to the last bit, ties included
(``tests/test_vectorstore_equivalence.py``,
``tests/test_vectorstore_float32.py``).  A single-query search of an
untrained index or a bare :class:`FlatIndex` scores its one block the same
way (``tests/test_vectorstore_finish.py``).  ``benchmarks/perf_harness.py`` and
``benchmarks/test_perf_batched_retrieval.py`` time it as the in-run speedup
denominator.  :class:`ShadowPool` is the flat copy of the pool the index
used to keep, rebuilt beside it from the same mutations.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.vectorstore.flat import (
    _EPS,
    STORAGE_DTYPE,
    FlatIndex,
    SearchResult,
)
from repro.vectorstore.ivf import IVFIndex


class ShadowPool(FlatIndex):
    """The flat copy :class:`IVFIndex` no longer keeps, as an oracle.

    A plain :class:`FlatIndex` fed the same adds and removes as an index:
    its swap-delete ``keys`` are then the order a global retrain clusters
    in, and ``matrix`` is what it must train on, bit for bit
    (``tests/test_vectorstore_float32.py``).
    """


def reference_search(index: IVFIndex | FlatIndex, query: np.ndarray,
                     k: int) -> list[SearchResult]:
    """A bare :class:`FlatIndex`, or an untrained index's one block, is
    one probed block: every row, in row order."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    qnorm = float(np.linalg.norm(q))
    if qnorm <= 0 or k <= 0:
        return []
    q = q / qnorm
    if isinstance(index, FlatIndex):
        blocks = [index]
    elif not index.is_trained:
        blocks = index._blocks[:1]
    else:
        nprobe = min(index.nprobe, index.n_clusters)
        probe = np.argsort(-(index._centroids @ q))[:nprobe]
        blocks = [index._blocks[cluster] for cluster in probe]
    q32 = q.astype(STORAGE_DTYPE)
    candidates = [
        SearchResult(key, float(np.einsum("j,j->", block.matrix[row], q32)))
        for block in blocks
        for row, key in enumerate(block.keys)
    ]
    order = np.argsort([-c.score for c in candidates], kind="stable")
    return [candidates[i] for i in order[:k]]


def reference_search_batch(index, queries: np.ndarray,
                           k: int) -> list[list[SearchResult]]:
    """``search_batch`` with the tail it had before the shared finish.

    The batched kernel verbatim — one centroid matmul, ``argpartition``
    probes, one sgemm per ``(cluster, querying rows)``, one ``argpartition``
    per row — then one ``SearchResult`` per *candidate* and a Python
    ``sort(reverse=True)`` per query.  An untrained index (or a bare
    :class:`FlatIndex`) is the flat batch with its candidates sorted the
    same way, in ``argpartition`` order.  ``finish`` must return the
    same keys, scores and order, ties included.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = q.shape[0]
    norms = np.linalg.norm(q, axis=1)
    valid = norms >= _EPS
    q = q / np.maximum(norms, _EPS)[:, None]
    candidates: list[list[SearchResult]] = [[] for _ in range(n_queries)]
    flat = index if isinstance(index, FlatIndex) else \
        None if index.is_trained else index._blocks[0]
    if flat is not None:
        if k <= 0 or not len(flat):
            return candidates
        scores = q.astype(STORAGE_DTYPE) @ flat.matrix.T
        keep = min(k, len(flat))
        top = np.argpartition(-scores, keep - 1, axis=1)[:, :keep]
        for qi in np.flatnonzero(valid):
            candidates[qi].extend(
                SearchResult(flat.keys[j], float(scores[qi, j]))
                for j in top[qi])
    elif k > 0:
        nprobe = min(index.nprobe, index.n_clusters)
        centroid_scores = q @ index._centroids.T
        probes = np.argpartition(-centroid_scores, nprobe - 1,
                                 axis=1)[:, :nprobe]
        q32 = q.astype(STORAGE_DTYPE)
        by_cluster: dict[int, list[int]] = defaultdict(list)
        for qi in np.flatnonzero(valid):
            for cluster in probes[qi]:
                by_cluster[int(cluster)].append(int(qi))
        for cluster, rows in by_cluster.items():
            block = index._blocks[cluster]
            members = block.keys
            if not members:
                continue
            scores = q32[rows] @ block.matrix.T
            m = len(members)
            keep = min(k, m)
            for row, qi in enumerate(rows):
                s = scores[row]
                top = np.argpartition(-s, keep - 1)[:keep] if m > keep \
                    else np.arange(m)
                candidates[qi].extend(
                    SearchResult(members[i], float(s[i])) for i in top)
    for bucket in candidates:
        bucket.sort(key=lambda r: r.score, reverse=True)
    return [bucket[:k] for bucket in candidates]
