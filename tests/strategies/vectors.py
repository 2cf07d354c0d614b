"""Hypothesis strategies for vector-index scenarios.

Each strategy draws *parameters* — a pool seed, a size, a duplicate-
injection pattern — and returns a built pool description, so property
tests over the IVF index receive realistic unit-vector pools (topic-
clustered, with adversarial exact duplicates) and the shrinker minimizes
over scenario structure (fewer vectors, fewer duplicates, smaller dim)
rather than over raw floats.

Pools are sized just above the index's training threshold so every
example exercises the *trained* search path; duplicates are bit-exact
copies of existing rows, the case that makes tie-order determinism a
real property instead of a vacuous one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

__all__ = ["seeds", "vector_pools", "VectorPool", "kmeans_cases",
           "KMeansCase"]

#: Pools stay above this so an IVFIndex(min_train_size=64) always trains.
MIN_POOL = 70
MAX_POOL = 160


class VectorPool:
    """A reproducible unit-vector pool with known duplicate groups.

    ``vectors`` is ``(n, dim)`` float64 (the precision callers feed the
    index; storage narrows to float32 internally).  ``duplicate_groups``
    maps a source row to the rows holding bit-exact copies of it.
    """

    def __init__(self, seed: int, n: int, dim: int,
                 duplicates: list[tuple[int, int]]) -> None:
        self.seed = seed
        self.n = n
        self.dim = dim
        rng = np.random.default_rng(seed)
        n_topics = max(2, n // 20)
        centers = rng.normal(size=(n_topics, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        vecs = centers[rng.integers(0, n_topics, size=n)]
        vecs = vecs + rng.normal(0.0, 0.2, size=(n, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for src, dst in duplicates:
            vecs[dst % n] = vecs[src % n]
        self.vectors = vecs
        # Group rows by actual bit-equality (a later injection may overwrite
        # an earlier source row, so the pair list alone is not the truth).
        by_bytes: dict[bytes, list[int]] = {}
        for row in range(n):
            by_bytes.setdefault(vecs[row].tobytes(), []).append(row)
        self.duplicate_groups: dict[int, list[int]] = {
            rows[0]: rows for rows in by_bytes.values() if len(rows) > 1
        }

    def queries(self, count: int) -> np.ndarray:
        """Unit query vectors drawn from the same topic structure."""
        rng = np.random.default_rng(self.seed + 1)
        q = self.vectors[rng.integers(0, self.n, size=count)]
        q = q + rng.normal(0.0, 0.1, size=q.shape)
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    def __repr__(self) -> str:  # shrinker-friendly reporting
        return (f"VectorPool(seed={self.seed}, n={self.n}, dim={self.dim}, "
                f"dup_groups={len(self.duplicate_groups)})")


def seeds() -> st.SearchStrategy[int]:
    return st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def vector_pools(draw, min_duplicates: int = 0,
                 max_duplicates: int = 12) -> VectorPool:
    """A clustered unit-vector pool with optional bit-exact duplicates."""
    seed = draw(seeds())
    n = draw(st.integers(min_value=MIN_POOL, max_value=MAX_POOL))
    dim = draw(st.sampled_from([4, 8, 16]))
    duplicates = draw(st.lists(
        st.tuples(st.integers(0, MAX_POOL - 1), st.integers(0, MAX_POOL - 1)),
        min_size=min_duplicates, max_size=max_duplicates,
    ))
    return VectorPool(seed, n, dim, duplicates)


class KMeansCase:
    """One ``KMeans.fit`` input: training rows, cluster count and seed.

    ``distinct`` is how many different rows ``data`` was built from: with
    ``distinct < k`` k-means++ must seed coinciding centroids (its
    ``total <= 0`` branch once every row sits on one), the later twins lose
    every argmin tie, and Lloyd re-seeds several empty clusters in one
    iteration.
    """

    def __init__(self, seed: int, n: int, dim: int, k: int, distinct: int,
                 dtype: type) -> None:
        self.seed = seed
        self.k = k
        self.distinct = distinct
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(max(2, distinct // 8), dim))
        base = centers[rng.integers(0, len(centers), size=distinct)]
        base = base + rng.normal(0.0, 0.3, size=(distinct, dim))
        rows = np.concatenate([np.arange(distinct),
                               rng.integers(0, distinct, size=n - distinct)])
        self.data = base[rng.permutation(rows)].astype(dtype)

    def __repr__(self) -> str:  # shrinker-friendly reporting
        n, dim = self.data.shape
        return (f"KMeansCase(seed={self.seed}, n={n}, dim={dim}, k={self.k}, "
                f"distinct={self.distinct}, dtype={self.data.dtype})")


@st.composite
def kmeans_cases(draw) -> KMeansCase:
    """Clustered training rows with duplicates; k spans n < k to k << n."""
    seed = draw(seeds())
    n = draw(st.integers(min_value=1, max_value=96))
    dim = draw(st.sampled_from([1, 2, 5, 16]))
    k = draw(st.one_of(st.integers(1, 12), st.just(n), st.integers(n, n + 4)))
    distinct = draw(st.one_of(st.just(n), st.integers(1, n)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return KMeansCase(seed, n, dim, k, distinct, dtype)
