"""Topic-clustered unit-vector pools: the example cache's workload shape.

A pure function of its arguments (no duplicates, no shrinking), for recall
tests and ``benchmarks/perf_harness.py``.  It imports numpy only — the
harness runs in CI jobs that install neither pytest nor hypothesis, so this
cannot live in ``tests/strategies/`` beside ``vector_pools``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Rows per generated chunk: an N=1M pool never holds more than this many
#: float64 rows at once (whole, it would be 512 MB at dim 64).
CHUNK = 100_000


def clustered_chunks(n: int, dim: int, n_topics: int,
                     seed: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, rows)`` float64 batches of at most :data:`CHUNK` rows."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_topics, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        vecs = centers[rng.integers(0, n_topics, size=m)]
        vecs = vecs + rng.normal(0.0, 0.15, size=(m, dim))
        yield start, vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def clustered_vectors(n: int, dim: int, n_topics: int,
                      seed: int = 0) -> np.ndarray:
    """``(n, dim)`` float64 topic-clustered unit vectors."""
    return np.concatenate(
        [rows for _, rows in clustered_chunks(n, dim, n_topics, seed=seed)])
