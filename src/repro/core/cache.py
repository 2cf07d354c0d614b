"""Example cache: storage plus clustered similarity retrieval.

Stage 1 of the selector searches this cache through an IVF index with
K = sqrt(N) clusters (section 4.1).  The cache itself is model-agnostic plain
text (section 4.3: "plaintext caching offers low memory consumption ... and
facilitates broader reuse across different models").
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.example import Example
from repro.core.table import ExampleTable
from repro.vectorstore.flat import _EPS
from repro.vectorstore.ivf import IVFIndex
from repro.workload.request import Request, check_record


class ExampleCache:
    """Keyed example store with approximate nearest-neighbour retrieval.

    The retrieval substrate of the Example Selector (section 4.1): holds the
    plaintext request-response pairs of section 4.3 and answers top-k
    relevance queries, one at a time (:meth:`search`) or for a whole
    micro-batch in vectorized form (:meth:`search_batch`).
    """

    def __init__(self, dim: int, seed: int = 0) -> None:
        self.dim = dim
        self._examples: dict[str, Example] = {}
        # Columnar bookkeeping: every cached example's numeric lifecycle
        # state lives in contiguous table columns (decay/eviction/snapshot
        # read them as arrays); the Example objects are views over rows.
        self._table = ExampleTable()
        self._index = IVFIndex(dim=dim, seed=seed)
        # Optional mutation journal (the persistence WAL attaches here):
        # a callable ``fn(kind, payload)`` invoked on every add / remove,
        # plus ``retrain`` markers when a search triggered a lazy
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
            self._journal("retrain", {"trainings": trainings})

    def _check_insertable(self, example: Example, embedding: np.ndarray,
                          norm: float) -> None:
        """Refuse what the table, the index, the journal or the snapshot
        would refuse, before the journal records and before the table is
        mutated, journal or not, so a rejected add leaves the cache and its
        journal as they were.  The index takes ``embedding`` and its stored
        ``norm`` as checked here."""
        if embedding.shape != (self._index.dim,):
            raise ValueError(
                f"example {example.example_id!r}: embedding dim "
                f"{embedding.shape} != index dim ({self._index.dim},)")
        if not _EPS <= norm < np.inf:     # NaN fails too
            raise ValueError(f"cannot index a zero vector (or a non-finite "
                             f"one) for {example.example_id!r}")
        check_record(example)
        # A snapshot stores the pool's latents as one (n, dim) matrix.
        for pool in self._examples.values():
            shape = np.shape(example.request.latent)
            if shape != np.shape(pool.request.latent):
                raise ValueError(
                    f"example {example.example_id!r}: 'latent' shape "
                    f"{shape} is not the pool's, "
                    f"{np.shape(pool.request.latent)}")
            break

    def add(self, example: Example) -> None:
        """Take ``example`` in: a standalone example's row is copied into
        the pool's, and the row :meth:`add_new` wrote into the pool's next
        free row becomes a member in place.  The record is journaled
        *before* the cache moves, in the journal's group: one that cannot
        be encoded raises with the cache and the journal as they were, and
        the group holds the record's write (and any compaction it
        triggers) until the mutation is done."""
        if example.example_id in self._examples:
            raise KeyError(f"duplicate example id {example.example_id!r}")
        d, table = example.__dict__, self._table
        if d["_table"] is table and d["_row"] == table._n:
            attach = table.attach_next
        elif d["_table"]._owners is not None:
            raise ValueError(
                f"example {example.example_id!r} is already attached")
        else:
            attach = table.attach
        embedding, norm = example.embedding, example.embedding_norm
        self._check_insertable(example, embedding, norm)
        journal = self._journal
        with getattr(journal, "group", nullcontext)():
            if journal is not None:
                journal("add", example)
            attach(example)
            self._index.add(example.example_id, embedding, norm)
            self._examples[example.example_id] = example

    def add_new(self, example_id: str, request: Request, response_text: str,
                embedding: np.ndarray, quality: float, source_model: str,
                source_cost: float, created_at: float) -> Example:
        """Admit a new example, written once: straight into the pool's next
        free row, with the checks of ``Example(...)``, then :meth:`add`
        takes that row in place.  A refusal leaves the row free and the
        cache as it was; the example never leaves this method unattached."""
        example = Example._staged(
            self._table, example_id, request, response_text, embedding,
            quality, source_model, source_cost, created_at)
        self.add(example)
        return example

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

