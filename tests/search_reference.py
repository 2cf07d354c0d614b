"""The per-key trained-path search loop, kept as the exactness oracle.

:func:`reference_search` is what :meth:`IVFIndex.search` did before the
contiguous cluster-major layout: probe clusters in descending centroid
score, walk each block's rows in storage order, score every row on its own
with a float32 einsum (the same sequential per-row accumulation the block
einsum performs), stable-sort by score.  The vectorized path — and its
``k == 1`` argmax fast path — must return the same keys in the same order
with the same scores to the last bit, ties included
(``tests/test_vectorstore_equivalence.py``,
``tests/test_vectorstore_float32.py``); ``benchmarks/perf_harness.py`` and
``benchmarks/test_perf_batched_retrieval.py`` time it as the in-run speedup
denominator.
"""

from __future__ import annotations

import numpy as np

from repro.vectorstore.flat import STORAGE_DTYPE, SearchResult
from repro.vectorstore.ivf import IVFIndex


def reference_search(index: IVFIndex, query: np.ndarray,
                     k: int) -> list[SearchResult]:
    assert index.is_trained
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    qnorm = float(np.linalg.norm(q))
    if qnorm <= 0 or k <= 0:
        return []
    q = q / qnorm
    nprobe = min(index.nprobe, index.n_clusters)
    probe = np.argsort(-(index._centroids @ q))[:nprobe]
    q32 = q.astype(STORAGE_DTYPE)
    candidates = [
        SearchResult(key, float(np.einsum(
            "j,j->", index._blocks[cluster].view()[row], q32)))
        for cluster in probe
        for row, key in enumerate(index._blocks[cluster].keys)
    ]
    order = np.argsort([-c.score for c in candidates], kind="stable")
    return [candidates[i] for i in order[:k]]
