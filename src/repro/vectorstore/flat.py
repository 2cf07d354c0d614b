"""Exact (brute-force) cosine similarity index, and stage 1's one kernel.

Storage is float32 (``STORAGE_DTYPE``): unit vectors lose ~1e-7 relative
precision per component, which is far below the noise floor of every
consumer, and resident bytes halve — the difference between fitting an
N=1M pool in RAM twice (live + snapshot restore) or not.  Normalization
happens in float64 and rounds once on store, so the stored vector is the
correctly-rounded float32 image of the exact unit vector.

Every search, flat or IVF, one query or a batch, is :func:`ranked`: one
:func:`finish` per query row, which scores the blocks it probes by einsum,
in float32, and keeps the top ``k`` by one stable sort.  A score is a function of the query row and the
stored row alone, so a lone query is a batch of one bit for bit, and
identical stored vectors tie exactly, in row order.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from typing import NamedTuple

import numpy as np

_EPS = 1e-12

#: The on-disk and in-RAM dtype of every dense vector block in the
#: vectorstore (every FlatIndex, hence IVF cluster block, and sidecars).
STORAGE_DTYPE = np.float32


class SearchResult(NamedTuple):
    """One retrieval hit: the stored key and its cosine score to the query."""

    key: object
    score: float


#: ``SearchResult(*pair)`` with no Python frame per hit.
_hit = functools.partial(tuple.__new__, SearchResult)


def unit_rows(queries: np.ndarray, dim: int) -> tuple[np.ndarray, list[bool]]:
    """Float64 unit rows of a ``(batch, dim)`` query block, and which rows
    can be searched at all: a norm outside ``[_EPS, inf)`` (NaN included)
    has no direction, and every entry point answers it with no hits.  Such
    a row is zero, so nothing downstream warns.  Each norm is its row's own
    ``dot``, whatever the batch."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise ValueError(f"query shape {q.shape} != (batch, {dim})")
    norms = [math.sqrt(row.dot(row)) for row in q]
    ok = [_EPS <= norm < math.inf for norm in norms]
    column = np.array(norms, dtype=np.float64)[:, None]
    if all(ok):
        return q / column, ok
    return np.divide(q, column, out=np.zeros_like(q),
                     where=np.array(ok, dtype=bool)[:, None]), ok


def ranked(k: int, q: np.ndarray, probes: list[list[int]],
           blocks: list["FlatIndex"]) -> list[list[SearchResult]]:
    """Top ``k`` for each row ``i`` of the unit queries ``q`` among the
    rows of the blocks ``probes[i]`` names: one :func:`finish` per query,
    in storage precision (a float64 query would upcast every block)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return [finish(k, row, [blocks[b] for b in probe])
            for row, probe in zip(q.astype(STORAGE_DTYPE), probes)]


def finish(k: int, row: np.ndarray, probed: list["FlatIndex"]
           ) -> list[SearchResult]:
    """Stage 1's one scoring body: the top ``k`` rows of the ``probed``
    blocks for the float32 unit query ``row``.

    One einsum per block.  Not BLAS: einsum sums each score in one fixed
    order over the two rows alone, where a gemv or gemm kernel can round
    by a row's position or a batch's shape — so a query scores bit for bit
    the same alone or in any batch, and identical rows tie.  Then one
    *stable* descending argsort over the concatenation, so exact ties
    resolve in probe-then-row order, as a per-key loop or
    ``list.sort(reverse=True)`` would; at ``k == 1`` argmax, which is that
    same first winner unsorted.  ``SearchResult``s are built for the
    winners only; ``tolist`` widens a float32 exactly as ``float()``.
    """
    scores = np.concatenate([np.einsum("md,d->m", block.matrix, row)
                             for block in probed]) if probed else ()
    if not len(scores):
        return []
    top = scores.argmax()[None] if k == 1 \
        else (-scores).argsort(kind="stable")[:k]
    keys = probed[0].keys if len(probed) == 1 \
        else [*chain.from_iterable([block.keys for block in probed])]
    return [*map(_hit, zip(map(keys.__getitem__, top.tolist()),
                           scores[top].tolist()))]


def unit_row(vector: np.ndarray, dim: int, key: object,
             norm: float | None = None) -> np.ndarray:
    """The stored form of ``vector``: normalized in float64, rounded once to
    :data:`STORAGE_DTYPE`.  Refuses a vector that is not ``dim`` long, or
    whose norm is zero or not finite — unless the caller checked a float64
    ``(dim,)`` vector and gives its ``float(np.linalg.norm)`` as ``norm``."""
    if norm is not None:
        return (vector / norm).astype(STORAGE_DTYPE)
    vec = np.asarray(vector, dtype=np.float64).reshape(-1)
    if vec.shape != (dim,):
        raise ValueError(f"vector dim {vec.shape} != index dim ({dim},)")
    norm = float(np.linalg.norm(vec))
    if not _EPS <= norm < np.inf:     # a NaN norm fails the test too
        raise ValueError(f"cannot index a zero vector (or a non-finite "
                         f"one) for key {key!r}")
    return (vec / norm).astype(STORAGE_DTYPE)


class FlatIndex:
    """Exact top-k cosine search over unit-normalized vectors; the one
    swap-delete vector store here, and every IVF cluster block.

    Vectors are L2-normalized on insert, so a query's scores are one
    einsum over the matrix (:func:`finish`).
    ``keys[i]`` labels row ``i`` (the live list: iterate, never mutate);
    removal is an O(1) swap-with-last, and capacity doubles.
    ``running_sum`` is the float64 sum of the live rows, kept on every
    insert/remove so recentering a cluster is O(dim); its accumulation order
    is not recoverable from the rows, so it is saved and a restore inherits
    it (a fresh store takes the pairwise sum ``mean`` uses).  ``version``
    counts mutations and stamps search receipts; not saved.  The
    constructor's optional arguments are that restore state.
    """

    __slots__ = ("dim", "keys", "_key_to_row", "_vectors", "_view",
                 "running_sum", "version")

    def __init__(self, dim: int, keys: list[object] | None = None,
                 vectors: np.ndarray | None = None,
                 running_sum: np.ndarray | None = None) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.keys: list[object] = [] if keys is None else list(keys)
        self._key_to_row = {key: row for row, key in enumerate(self.keys)}
        # capacity >= size
        self._vectors = np.empty((0, dim), dtype=STORAGE_DTYPE) \
            if vectors is None \
            else np.ascontiguousarray(vectors, dtype=STORAGE_DTYPE)
        if self._vectors.shape != (len(self.keys), dim):
            raise ValueError(f"vectors shape {self._vectors.shape} != "
                             f"({len(self.keys)}, {dim})")
        self._view: np.ndarray | None = None  # cached read-only matrix view
        self.running_sum = np.array(running_sum, dtype=np.float64) \
            if running_sum is not None \
            else self._vectors.sum(axis=0, dtype=np.float64)
        self.version = 0

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: object) -> bool:
        return key in self._key_to_row

    @property
    def matrix(self) -> np.ndarray:
        """The (n, dim) float32 matrix of stored unit vectors, row i = key i.

        A read-only view into the storage (no copy), cached until the store
        grows, shrinks, or reallocates, so hot-path callers pay nothing per
        access.  Do not mutate.
        """
        view = self._view
        n = len(self.keys)
        if view is None or view.shape[0] != n:
            view = self._vectors[:n]
            view.flags.writeable = False
            self._view = view
        return view

    @property
    def nbytes(self) -> int:
        """Resident bytes of the dense vector storage (capacity included)."""
        return self._vectors.nbytes

    def to_state(self) -> dict:
        """Keys in *row order* (the swap-delete history, which tie-breaking
        and the IVF split schedule read), the dense rows, the running sum."""
        return {
            "keys": list(self.keys),
            "vectors": np.array(self.matrix, dtype=STORAGE_DTYPE),
            "sum": np.array(self.running_sum, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatIndex":
        """Rebuild a store bit-identical to the one :meth:`to_state` saw; a
        float32 sidecar slice passes through without a copy."""
        vectors = np.asarray(state["vectors"])
        return cls(vectors.shape[-1], state["keys"], vectors, state["sum"])

    def add(self, key: object, vector: np.ndarray) -> None:
        """Insert a new ``key`` with its embedding.  A key already held
        (``KeyError``) or a refused vector leaves the store as it was."""
        if key in self._key_to_row:
            raise KeyError(f"duplicate key {key!r}")
        self.append(key, unit_row(vector, self.dim, key))

    def append(self, key: object, unit: np.ndarray) -> None:
        """Insert a new ``key`` whose row is already a :func:`unit_row`."""
        row = len(self.keys)
        if row == self._vectors.shape[0]:  # grow capacity by doubling
            grown = np.empty((max(8, 2 * row), self.dim), dtype=STORAGE_DTYPE)
            grown[:row] = self._vectors[:row]
            self._vectors = grown
            self._view = None
        self._vectors[row] = unit
        self.running_sum += self._vectors[row]  # the stored (float32) row
        self._key_to_row[key] = row
        self.keys.append(key)
        self.version += 1

    def remove(self, key: object) -> None:
        """Delete ``key``; O(1) via swap-with-last."""
        row = self._key_to_row.pop(key, None)
        if row is None:
            raise KeyError(key)
        self.version += 1
        self.running_sum -= self._vectors[row]
        last = len(self.keys) - 1
        if row != last:
            moved_key = self.keys[last]
            self.keys[row] = moved_key
            self._vectors[row] = self._vectors[last]
            self._key_to_row[moved_key] = row
        self.keys.pop()

    def get_vector(self, key: object) -> np.ndarray:
        """The stored (normalized, float32) embedding for ``key``."""
        return self._vectors[self._key_to_row[key]].copy()

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchResult]]:
        """Exact top-``k`` for each row of ``queries`` (descending); none
        for a row without a direction.  A lone query is a batch of one."""
        q, ok = unit_rows(queries, self.dim)
        return ranked(k, q, [[0] if fine else [] for fine in ok], [self])
