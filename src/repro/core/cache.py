"""Example cache: storage plus clustered similarity retrieval.

Stage 1 of the selector searches this cache through an IVF index with
K = sqrt(N) clusters (section 4.1).  The cache itself is model-agnostic plain
text (section 4.3: "plaintext caching offers low memory consumption ... and
facilitates broader reuse across different models").

Two layouts are provided:

* :class:`ExampleCache` — one monolithic IVF index; right for a single
  retriever replica and small-to-medium pools.
* :class:`ShardedExampleCache` — examples hash-partitioned across S IVF
  shards with fan-out search (the production layout of section 5's FAISS
  deployment note); pair it with the batched serving engine in
  :mod:`repro.serving.engine`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.config import IndexConfig
from repro.core.example import Example
from repro.core.table import ExampleTable
from repro.vectorstore.flat import _EPS
from repro.vectorstore.ivf import IVFIndex
from repro.vectorstore.sharded import ShardedIndex


class ExampleCache:
    """Keyed example store with approximate nearest-neighbour retrieval.

    The retrieval substrate of the Example Selector (section 4.1): holds the
    plaintext request-response pairs of section 4.3 and answers top-k
    relevance queries, one at a time (:meth:`search`) or for a whole
    micro-batch in vectorized form (:meth:`search_batch`).
    """

    def __init__(self, dim: int, nprobe: int = 2, seed: int = 0,
                 index: IVFIndex | ShardedIndex | None = None,
                 index_config: "IndexConfig | None" = None) -> None:
        self._examples: dict[str, Example] = {}
        # Columnar bookkeeping: every cached example's numeric lifecycle
        # state lives in contiguous table columns (decay/eviction/snapshot
        # read them as arrays); the Example objects are views over rows.
        self._table = ExampleTable()
        # `is None` matters: a freshly built index is empty, hence falsy.
        if index is not None:
            self._index = index
        elif index_config is not None:
            self._index = IVFIndex(
                dim=dim, nprobe=index_config.nprobe, seed=seed,
                incremental_min_n=index_config.incremental_min_n,
            )
        else:
            self._index = IVFIndex(dim=dim, nprobe=nprobe, seed=seed)
        # Optional mutation journal (the persistence WAL attaches here):
        # a callable ``fn(kind, payload)`` invoked on every add / overwrite
        # / remove, plus ``retrain`` markers when a search triggered a lazy
        # K-Means (re)train.  ``None`` (the default) costs one branch per
        # mutation and nothing on the search hot path beyond that branch.
        self._journal = None
        self._journal_trainings = 0

    def __len__(self) -> int:
        return len(self._examples)

    def __contains__(self, example_id: str) -> bool:
        return example_id in self._examples

    def __iter__(self):
        return iter(self._examples.values())

    @property
    def total_bytes(self) -> int:
        """Plaintext bytes held: the table's running sum of its
        ``plaintext_bytes`` column, exact through text rebinds too."""
        return self._table.total_bytes

    @property
    def table(self) -> ExampleTable:
        """The struct-of-arrays bookkeeping table backing cached examples."""
        return self._table

    @property
    def index_nbytes(self) -> int:
        """Resident bytes of the index's dense vector storage (via nbytes)."""
        return self._index.nbytes

    @property
    def journal(self):
        """The attached mutation-journal callback, or ``None``.

        Set by :class:`repro.persistence.wal.WriteAheadLog` to record cache
        mutations between snapshots; see ``docs/PERSISTENCE.md`` for the
        record vocabulary and recovery semantics.
        """
        return self._journal

    @journal.setter
    def journal(self, fn) -> None:
        self._journal = fn
        # Baseline for retrain detection: only trains *after* attachment
        # are journaled (earlier ones are part of the snapshot).
        self._journal_trainings = self._index.trainings if fn is not None else 0

    def _note_search(self) -> None:
        """Journal a ``retrain`` marker if the last search trained the index.

        K-Means retraining is lazy (it fires inside a search once enough
        churn accumulated), so WAL recovery needs a marker *at the right
        position* in the mutation sequence to re-fire it — replaying the
        surrounding adds/removes alone would leave the index in its
        pre-train layout.
        """
        if self._journal is None:
            return
        trainings = self._index.trainings
        if trainings != self._journal_trainings:
            self._journal_trainings = trainings
            per_shard = getattr(self._index, "per_shard_trainings", None)
            self._journal("retrain",
                          {"trainings": trainings, "per_shard": per_shard})

    def _check_indexable(self, example: Example) -> None:
        """Refuse what the index would refuse, before anything is mutated
        (an index overwrite drops the old vector before it looks at the new
        one), so a rejected add or overwrite leaves the cache as it was."""
        if example.embedding.shape != (self._index.dim,):
            raise ValueError(
                f"example {example.example_id!r}: embedding dim "
                f"{example.embedding.shape} != index dim ({self._index.dim},)")
        if example.embedding_norm < _EPS:
            raise ValueError(
                f"cannot index a zero vector for {example.example_id!r}")

    def add(self, example: Example) -> None:
        if example.example_id in self._examples:
            raise KeyError(f"duplicate example id {example.example_id!r}")
        self._check_indexable(example)
        self._table.attach(example)     # refuses, first, a cached example
        self._index.add(example.example_id, example.embedding)
        self._examples[example.example_id] = example
        if self._journal is not None:
            self._journal("add", example)

    def overwrite(self, example: Example) -> None:
        """Replace the stored example with the same id in place.

        The index sees ONE overwrite (one churn event, the invariant
        :meth:`IVFIndex.add` promises), not a remove plus an insert — so
        state-migration tools can rewrite entries without doubling the
        retrain cadence.  The example must already be cached.
        """
        example_id = example.example_id
        previous = self._examples[example_id]
        self._check_indexable(example)
        if previous is not example:
            self._table.replace(previous, example)
            self._examples[example_id] = example
        self._index.add(example_id, example.embedding)
        if self._journal is not None:
            self._journal("overwrite", example)

    def remove(self, example_id: str) -> Example:
        example = self._examples.pop(example_id)
        self._index.remove(example_id)
        self._table.detach(example)
        if self._journal is not None:
            self._journal("remove", example_id)
        return example

    def get(self, example_id: str) -> Example:
        return self._examples[example_id]

    def search(self, embedding: np.ndarray, k: int) -> list[tuple[Example, float]]:
        """Top-k (example, relevance) pairs for a request embedding."""
        hits = self._index.search(embedding, k)
        self._note_search()
        examples = self._examples
        return [(examples[key], score) for key, score in hits]

    def search_batch(self, embeddings: np.ndarray,
                     k: int) -> list[list[tuple[Example, float]]]:
        """Top-k pairs for a micro-batch of request embeddings at once.

        One vectorized index pass for the whole batch; the amortization the
        batched serving engine (:mod:`repro.serving.engine`) relies on.
        """
        batches = self._index.search_batch(embeddings, k)
        self._note_search()
        examples = self._examples
        return [[(examples[key], score) for key, score in hits]
                for hits in batches]

    def nearest_similarity(self, embedding: np.ndarray) -> float:
        """Similarity of the closest cached example (0.0 on an empty cache)."""
        hits = self._index.search(embedding, 1)
        self._note_search()
        return hits[0].score if hits else 0.0

    def matching_cost(self) -> float:
        """Expected comparisons per lookup (the K + N/K quantity of 4.1)."""
        return self._index.matching_cost()

    def examples(self) -> list[Example]:
        return list(self._examples.values())


class ShardedExampleCache(ExampleCache):
    """Example cache partitioned across ``n_shards`` IVF shards.

    Same interface as :class:`ExampleCache`; retrieval fans out to every
    shard and merges per-shard top-k by score, so results match the
    monolithic cache up to each shard's own IVF approximation.  ``shard_fn``
    optionally keys shard assignment off the example id (e.g. topic-keyed
    placement); the default is a stable hash.
    """

    def __init__(self, dim: int, n_shards: int = 4, nprobe: int = 2,
                 seed: int = 0,
                 shard_fn: Callable[[object], int] | None = None,
                 index_config: IndexConfig | None = None) -> None:
        cfg = index_config or IndexConfig(nprobe=nprobe)
        super().__init__(
            dim,
            index=ShardedIndex(dim=dim, n_shards=n_shards, nprobe=cfg.nprobe,
                               seed=seed, shard_fn=shard_fn,
                               incremental_min_n=cfg.incremental_min_n),
        )

    @property
    def shard_sizes(self) -> list[int]:
        """Examples per shard (balance diagnostic)."""
        return self._index.shard_sizes
