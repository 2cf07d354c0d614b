"""Exact (brute-force) cosine similarity index.

Storage is float32 (``STORAGE_DTYPE``): unit vectors lose ~1e-7 relative
precision per component, which is far below the noise floor of every
consumer, and resident bytes halve — the difference between fitting an
N=1M pool in RAM twice (live + snapshot restore) or not.  Normalization
happens in float64 and rounds once on store, so the stored vector is the
correctly-rounded float32 image of the exact unit vector.  Scores are
computed in float32 and returned as Python floats; exact ties between
identical stored vectors still tie exactly (same bits in, same bits out).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_EPS = 1e-12

#: The on-disk and in-RAM dtype of every dense vector block in the
#: vectorstore (flat storage, IVF cluster blocks, snapshot sidecars).
STORAGE_DTYPE = np.float32


class SearchResult(NamedTuple):
    """One retrieval hit: the stored key and its cosine score to the query."""

    key: object
    score: float


#: ``SearchResult(*pair)`` with no Python frame per hit.
_hit = functools.partial(tuple.__new__, SearchResult)


def unit_rows(queries: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 unit rows of a ``(batch, dim)`` query block, and which rows
    can be searched at all: a norm below ``_EPS`` has no direction, and every
    entry point (single or batched, flat or IVF) answers it with no hits."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != dim:
        raise ValueError(f"query dim {q.shape[1]} != index dim {dim}")
    norms = np.linalg.norm(q, axis=1)
    return q / np.maximum(norms, _EPS)[:, None], norms >= _EPS


def finish(k: int, chunks: list[np.ndarray], tables: list,
           rows: list[np.ndarray] | None = None) -> list[SearchResult]:
    """The tail every search shares: the top ``k`` of its candidates.

    ``chunks[p]`` holds the float32 scores of part ``p`` (a probed block, a
    shard's hits); its candidate ``j`` is ``tables[p][j]``, or
    ``tables[p][rows[p][j]]`` when the part arrives pre-selected.  One
    *stable* descending argsort over the concatenation, so exact ties
    resolve in part-then-candidate order, as a per-key loop or
    ``list.sort(reverse=True)`` would; at ``k == 1`` argmax, which is that
    same first winner unsorted.  Keys and ``SearchResult``s are built for
    the winners only; ``tolist`` widens a float32 exactly as ``float()``.
    """
    if not chunks:
        return []
    scores = np.concatenate(chunks)
    top = scores.argmax()[None] if k == 1 \
        else (-scores).argsort(kind="stable")[:k]
    sizes = np.array([chunk.shape[0] for chunk in chunks], dtype=np.intp)
    ends = sizes.cumsum()
    owners = ends.searchsorted(top, side="right")
    local = top - (ends - sizes)[owners] if rows is None \
        else np.concatenate(rows)[top]
    keys = [tables[p][i] for p, i in zip(owners.tolist(), local.tolist())]
    return [*map(_hit, zip(keys, scores[top].tolist()))]


class FlatIndex:
    """Exact top-k cosine search over unit-normalized vectors.

    Supports dynamic add/remove (the example cache churns constantly).
    Vectors are L2-normalized on insert so search is a single matrix-vector
    product; :meth:`search_batch` turns a whole micro-batch of queries into
    one matrix-matrix product.  Storage grows by doubling so inserts are
    amortized O(1) rather than one full copy per add.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._keys: list[object] = []
        self._key_to_row: dict[object, int] = {}
        # capacity >= size
        self._vectors = np.empty((0, dim), dtype=STORAGE_DTYPE)
        self._view: np.ndarray | None = None  # cached read-only matrix view

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._key_to_row

    @property
    def keys(self) -> list[object]:
        return list(self._keys)

    @property
    def matrix(self) -> np.ndarray:
        """The (n, dim) float32 matrix of stored unit vectors, row i = key i.

        A read-only view into index storage (no copy): callers such as
        :class:`repro.vectorstore.ivf.IVFIndex` slice it for vectorized
        per-cluster scoring, and K-Means retraining consumes it directly
        (dtype-preserving, no float64 upcast copy).  Do not mutate.  The
        view object is cached and reused until the index grows, shrinks, or
        reallocates, so hot-path callers pay nothing per access.
        """
        view = self._view
        n = len(self._keys)
        if view is None or view.shape[0] != n or view.base is not self._vectors:
            view = self._vectors[:n]
            view.flags.writeable = False
            self._view = view
        return view

    @property
    def nbytes(self) -> int:
        """Resident bytes of the dense vector storage (capacity included)."""
        return self._vectors.nbytes

    def to_state(self) -> dict:
        """Serializable state: keys in *row order* plus the dense matrix.

        Row order is the index's full add/remove history (swap-delete moves
        the last row into the hole), and K-Means retraining reads rows in
        exactly this order — so the state must preserve it, not just the
        key->vector mapping, for a restored index to retrain identically
        (see :mod:`repro.persistence.snapshot`).
        """
        return {
            "dim": self.dim,
            "keys": list(self._keys),
            "vectors": np.array(self.matrix, dtype=STORAGE_DTYPE),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatIndex":
        """Rebuild an index bit-identical to the one :meth:`to_state` saw.

        A float32 sidecar slice passes through without a copy, which is
        what makes mmap restores O(ms).
        """
        index = cls(int(state["dim"]))
        keys = list(state["keys"])
        vectors = np.ascontiguousarray(state["vectors"], dtype=STORAGE_DTYPE)
        if vectors.shape != (len(keys), index.dim):
            raise ValueError(
                f"state vectors shape {vectors.shape} != "
                f"({len(keys)}, {index.dim})"
            )
        index._keys = keys
        index._key_to_row = {key: row for row, key in enumerate(keys)}
        index._vectors = vectors
        return index

    def rows_of(self, keys: list[object]) -> np.ndarray:
        """Row indices into :attr:`matrix` for ``keys`` (KeyError if absent)."""
        return np.fromiter(
            (self._key_to_row[key] for key in keys), dtype=np.intp, count=len(keys)
        )

    def add(self, key: object, vector: np.ndarray) -> None:
        """Insert (or overwrite) ``key`` with its embedding."""
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector dim {vec.shape} != index dim ({self.dim},)")
        norm = float(np.linalg.norm(vec))
        if norm < _EPS:
            raise ValueError(f"cannot index a zero vector for key {key!r}")
        # Normalize in float64, round once to storage precision.
        vec = (vec / norm).astype(STORAGE_DTYPE)
        if key in self._key_to_row:
            self._vectors[self._key_to_row[key]] = vec
            return
        row = len(self._keys)
        if row == self._vectors.shape[0]:  # grow capacity by doubling
            grown = np.empty((max(8, 2 * row), self.dim), dtype=STORAGE_DTYPE)
            grown[:row] = self._vectors[:row]
            self._vectors = grown
        self._key_to_row[key] = row
        self._keys.append(key)
        self._vectors[row] = vec

    def remove(self, key: object) -> None:
        """Delete ``key``; O(1) via swap-with-last."""
        row = self._key_to_row.pop(key, None)
        if row is None:
            raise KeyError(key)
        last = len(self._keys) - 1
        if row != last:
            moved_key = self._keys[last]
            self._keys[row] = moved_key
            self._vectors[row] = self._vectors[last]
            self._key_to_row[moved_key] = row
        self._keys.pop()

    def get_vector(self, key: object) -> np.ndarray:
        """The stored (normalized, float32) embedding for ``key``."""
        return self._vectors[self._key_to_row[key]].copy()

    def search(self, query: np.ndarray, k: int) -> list[SearchResult]:
        """Top-``k`` entries by cosine similarity to ``query`` (descending)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0 or not self._keys:
            return []
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape != (self.dim,):
            raise ValueError(f"query dim {q.shape} != index dim ({self.dim},)")
        qnorm = float(np.linalg.norm(q))
        if qnorm < _EPS:
            return []
        # Score in storage precision: a float64 query against the float32
        # matrix would silently upcast-copy the whole matrix per call.
        scores = self.matrix @ (q / qnorm).astype(STORAGE_DTYPE)
        k = min(k, len(self._keys))
        top = (-scores).argpartition(k - 1)[:k]
        return finish(k, [scores[top]], [self._keys], [top])

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchResult]]:
        """Exact top-``k`` for a batch of queries in one matmul.

        One descending list per row of ``queries``; none for a zero-norm row.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        q, valid = unit_rows(queries, self.dim)
        if k == 0 or not self._keys:
            return [[] for _ in valid]
        scores = q.astype(STORAGE_DTYPE) @ self.matrix.T  # the one matmul
        k = min(k, len(self._keys))
        top = (-scores).argpartition(k - 1, axis=1)[:, :k]
        return [finish(k, [scores[i, top[i]]], [self._keys], [top[i]])
                if ok else [] for i, ok in enumerate(valid.tolist())]
