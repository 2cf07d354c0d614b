"""Sharded IVF index: partition the pool, fan out searches, merge top-k.

A single :class:`~repro.vectorstore.ivf.IVFIndex` is the right structure for
one retriever replica; at production scale (ROADMAP north star, paper
section 5's "GPU-accelerated FAISS" deployment note) the example pool is
partitioned across shards so inserts parallelize and each shard's K-Means
retrain touches only 1/S of the data.  :class:`ShardedIndex` reproduces that
layout: keys are assigned to shards by a stable hash (or a caller-provided
``shard_fn``, e.g. topic-keyed), every search fans out to all shards, and the
per-shard top-k lists are merged by score.

Fan-out search is *exact with respect to the sharding*: the only recall loss
versus a single index comes from each shard's own IVF approximation, so
recall typically improves slightly (each shard probes ``nprobe`` of its own,
smaller, cluster set).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import stable_hash
from repro.vectorstore.flat import STORAGE_DTYPE, SearchResult, finish
from repro.vectorstore.ivf import IVFIndex


def _merge(per_shard: list | tuple, k: int) -> list[SearchResult]:
    """Per-shard top-k lists to the fan-out top-k, through the tail every
    search shares, a shard a part: ties resolve in shard-then-rank order."""
    parts = [tuple(zip(*hits)) for hits in per_shard if hits]
    return finish(k, [np.array(scores, dtype=STORAGE_DTYPE)
                      for _, scores in parts], [keys for keys, _ in parts])


class ShardedIndex:
    """Hash-partitioned collection of IVF shards with fan-out top-k search.

    Mirrors the single-index API (``add`` / ``remove`` / ``search`` /
    ``search_batch`` / ``matching_cost``) so callers such as
    :class:`repro.core.cache.ShardedExampleCache` can swap it in transparently.
    """

    def __init__(self, dim: int, n_shards: int = 4, nprobe: int = 2,
                 min_train_size: int = 64, retrain_threshold: float = 0.3,
                 seed: int = 0,
                 shard_fn: Callable[[object], int] | None = None,
                 incremental_min_n: int = 10_000) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.dim = dim
        self.n_shards = n_shards
        self._shard_fn = shard_fn
        # ``incremental_min_n`` applies per shard: each shard sees ~1/S of
        # the pool, so a caller tuning it for the total pool size should
        # divide by S (documented in docs/PERFORMANCE.md).
        self._shards = [
            IVFIndex(
                dim=dim, nprobe=nprobe, min_train_size=min_train_size,
                retrain_threshold=retrain_threshold,
                seed=stable_hash("shard", seed, s),
                incremental_min_n=incremental_min_n,
            )
            for s in range(n_shards)
        ]
        # Assignment is memoized so remove/get_vector stay O(1) even when a
        # caller-provided shard_fn is not a pure function of the key.
        self._key_to_shard: dict[object, int] = {}

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: object) -> bool:
        return key in self._key_to_shard

    @property
    def shard_sizes(self) -> list[int]:
        """Entry count per shard (balance diagnostic)."""
        return [len(shard) for shard in self._shards]

    @property
    def nbytes(self) -> int:
        """Resident bytes of dense vector storage across all shards."""
        return sum(shard.nbytes for shard in self._shards)

    def shard_of(self, key: object) -> int:
        """The shard index ``key`` lives in (or would be assigned to)."""
        assigned = self._key_to_shard.get(key)
        if assigned is not None:
            return assigned
        if self._shard_fn is not None:
            shard = int(self._shard_fn(key)) % self.n_shards
        else:
            shard = stable_hash("shard-key", key) % self.n_shards
        return shard

    @property
    def trainings(self) -> int:
        """Total K-Means (re)trains across all shards."""
        return sum(shard.trainings for shard in self._shards)

    @property
    def per_shard_trainings(self) -> list[int]:
        """K-Means (re)train count per shard (WAL retrain records use this
        to re-fire a recovery retrain on exactly the shard that trained)."""
        return [shard.trainings for shard in self._shards]

    def to_state(self) -> dict:
        """Serializable state: every shard's full state.  The memoized
        key->shard assignment is the shards' membership, so it is rebuilt,
        not saved (``shard_fn`` itself is code, not state — a custom one
        must be re-supplied to :meth:`from_state`)."""
        return {
            "dim": self.dim,
            "n_shards": self.n_shards,
            "shards": [shard.to_state() for shard in self._shards],
        }

    @classmethod
    def from_state(cls, state: dict,
                   shard_fn: Callable[[object], int] | None = None
                   ) -> "ShardedIndex":
        """Rebuild bit-identically; pass the original ``shard_fn`` if one
        was used (assignments of existing keys are restored either way)."""
        index = cls.__new__(cls)
        index.dim = int(state["dim"])
        index.n_shards = int(state["n_shards"])
        index._shard_fn = shard_fn
        index._shards = [IVFIndex.from_state(s) for s in state["shards"]]
        if len(index._shards) != index.n_shards:
            raise ValueError(
                f"state has {len(index._shards)} shards, expected "
                f"{index.n_shards}"
            )
        index._key_to_shard = {key: s for s, shard in enumerate(index._shards)
                               for key in shard._keys}
        return index

    def add(self, key: object, vector: np.ndarray) -> None:
        # Shard assignment is memoized, so an overwrite lands on the shard
        # that already holds the key; delegating the overwrite to that shard
        # lets it count one churn event, not a remove plus an insert.
        shard = self._key_to_shard.get(key)
        if shard is None:
            shard = self.shard_of(key)
        self._shards[shard].add(key, vector)
        self._key_to_shard[key] = shard

    def remove(self, key: object) -> None:
        shard = self._key_to_shard.pop(key, None)
        if shard is None:
            raise KeyError(key)
        self._shards[shard].remove(key)

    def get_vector(self, key: object) -> np.ndarray:
        return self._shards[self._key_to_shard[key]].get_vector(key)

    def search(self, query: np.ndarray, k: int) -> list[SearchResult]:
        """Fan out to every shard; merge the per-shard top-k by score."""
        return _merge([shard.search(query, k) for shard in self._shards], k)

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchResult]]:
        """Batched fan-out: each shard scores the whole batch at once."""
        per_shard = [shard.search_batch(queries, k) for shard in self._shards]
        return [_merge(hits, k) for hits in zip(*per_shard)]

    def matching_cost(self) -> float:
        """Expected comparisons per fan-out query: sum of per-shard costs."""
        return sum(shard.matching_cost() for shard in self._shards)
