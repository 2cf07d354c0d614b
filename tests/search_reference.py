"""The per-key search loop, kept as the exactness oracle, one copy.

:func:`reference_search` is what :meth:`IVFIndex.search` did before the
contiguous cluster-major layout: probe clusters in descending centroid
score, walk each block's rows in storage order, score every row on its own
with a float32 einsum (the same sequential per-row accumulation the block
einsum of :func:`repro.vectorstore.flat.ranked` performs), stable-sort by
score.  Every search entry point — ``search`` and ``search_batch``, flat or
IVF, trained or not, and the ``k == 1`` argmax fast path — must return the
same keys in the same order with the same scores to the last bit, ties
included (``tests/test_vectorstore_finish.py``,
``tests/test_vectorstore_equivalence.py``,
``tests/test_vectorstore_float32.py``); a batch is that loop once per row
(:func:`reference_search_batch`).  ``benchmarks/perf_harness.py`` and
``benchmarks/test_perf_batched_retrieval.py`` time it as the in-run speedup
denominator.  :class:`ShadowPool` is the flat copy of the pool the index
used to keep, rebuilt beside it from the same mutations.
"""

from __future__ import annotations

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
    one probed block: every row, in row order.  A query whose norm is not
    in ``[_EPS, inf)`` has no direction and no hits."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    qnorm = float(np.linalg.norm(q))
    if not _EPS <= qnorm < np.inf or k <= 0:
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
    """:func:`reference_search` once per row of ``queries``."""
    return [reference_search(index, query, k)
            for query in np.atleast_2d(queries)]
