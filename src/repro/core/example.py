"""The cached example record."""

from __future__ import annotations

import functools

import numpy as np

from repro.core.table import EMBEDDING, ExampleTable
from repro.llm.icl import ExampleView, latent_norm
from repro.workload.request import Request


#: ``ExampleView(*fields)`` with no Python frame per view.
_new_view = functools.partial(tuple.__new__, ExampleView)


def _check_new(example_id: str, embedding, quality: float) -> None:
    if not 0.0 <= quality <= 1.0:
        raise ValueError(f"example {example_id}: quality must be in [0, 1], "
                         f"got {quality}")
    if np.ndim(embedding) != 1:
        raise ValueError(f"example {example_id}: embedding shape "
                         f"{np.shape(embedding)} is not 1-D")


def _bind(example, table, row: int, example_id: str, request: Request,
          response_text: str, source_model: str) -> None:
    # One insertion order for every Example, so their dicts share keys.
    d = example.__dict__
    d["example_id"], d["request"], d["response_text"] = \
        example_id, request, response_text
    d["source_model"], d["_table"], d["_row"] = source_model, table, row


def _table_scalar(column: str, cast) -> property:
    """A bookkeeping field stored in the example's table slot, cast back to
    the plain Python scalar the rest of the system always saw — so
    decisions downstream stay bit-identical."""

    def fget(self):
        d = self.__dict__
        return cast(d["_table"]._cols[column][d["_row"]])

    def fset(self, value):
        d = self.__dict__
        d["_table"]._cols[column][d["_row"]] = value

    return property(fget, fset)


def _derived_scalar(column: str, cast, doc: str) -> property:
    """A column the table keeps from the texts and the embedding: the same
    read as :func:`_table_scalar`, and no setter."""
    return property(_table_scalar(column, cast).fget, doc=doc)


class Example:
    """One historical request-response pair stored in the example cache.

    Three EMA streams drive the Example Manager (section 4.3), each four
    columns of the example's table row (``{stream}__value`` etc.), fed by
    :meth:`record_use` and read as columns: ``gain_ema`` accumulates the
    replay potential G(e), ``offload_gain`` counts successful offloadings
    (the knapsack *value*, decayed hourly) and ``feedback_quality`` tracks
    the response quality of the requests the example augmented.

    The constructor signature matches the original dataclass.  Scalar
    bookkeeping fields and the embedding are properties over one row of one
    :class:`~repro.core.table.ExampleTable`: the owning cache's columnar
    table (which is what lets decay, eviction, stage-2 scoring and snapshot
    restore run over contiguous arrays), the pool's departures once the
    cache evicted it, or a one-row table of the example's own while no
    cache holds it (an admission skips that one: ``ExampleCache.add_new``
    writes its example straight into the pool's next free row).  Only
    ``ExampleTable`` and these property setters may write the table-backed
    fields — ``reprolint`` WAL003 enforces that.  ``embedding`` is a view
    of the table row, read afresh on every access: use it, do not keep it
    across an add or an eviction (the row moves between tables, and a
    swap-delete may move another row into its place);
    ``np.array(ex.embedding)`` copies.
    """

    def __init__(self, example_id: str, request: Request, response_text: str,
                 embedding: np.ndarray, quality: float, source_model: str,
                 source_cost: float, created_at: float = 0.0,
                 access_count: int = 0, replay_count: int = 0) -> None:
        _check_new(example_id, embedding, quality)
        table = ExampleTable.standalone(len(embedding))
        _bind(self, table, 0, example_id, request, response_text, source_model)
        # Copied in: the caller's array may be another cached example's row.
        table.write_new_row(0, embedding, request.text, response_text,
                            quality, source_cost, created_at, access_count,
                            replay_count)

    @classmethod
    def _staged(cls, table, example_id: str, request: Request,
                response_text: str, embedding: np.ndarray, quality: float,
                source_model: str, source_cost: float,
                created_at: float) -> "Example":
        """A new example written into ``table``'s next free row, with the
        constructor's checks: ``ExampleCache.add_new``'s first step, a
        member only once ``ExampleCache.add`` takes the row."""
        _check_new(example_id, embedding, quality)
        row = table.reserve_row(len(embedding))
        self = cls._attached_view(table, row, example_id, request,
                                  response_text, source_model)
        table.write_new_row(row, embedding, request.text, response_text,
                            quality, source_cost, created_at)
        return self

    @classmethod
    def _attached_view(cls, table, row: int, example_id: str, request: Request,
                       response_text: str, source_model: str) -> "Example":
        """A cheap Example bound to an existing table row (bulk restore,
        and :meth:`_staged`).

        Skips ``__init__`` entirely: validation and the row's derived
        columns are the row writer's (a snapshot's columns hold them;
        :meth:`_staged` writes them next), so a snapshot restore only pays
        six ``__dict__`` stores per example.
        """
        self = object.__new__(cls)
        _bind(self, table, row, example_id, request, response_text,
              source_model)
        return self

    quality = _table_scalar("quality", float)
    created_at = _table_scalar("created_at", float)
    access_count = _table_scalar("access_count", int)
    replay_count = _table_scalar("replay_count", int)
    source_cost = _table_scalar("source_cost", float)

    def __setattr__(self, name: str, value: object) -> None:
        # The token count and plaintext size sit on the per-candidate serve
        # and eviction hot paths, so their table slots are refreshed when
        # the text they derive from is rebound.  Replay refinement
        # rebinding ``response_text`` in place is the case that makes this
        # necessary.
        object.__setattr__(self, name, value)
        if name in ("response_text", "request"):
            d = self.__dict__
            d.pop("_latent_norm", None)
            d["_table"].refresh_text_stats(d["_row"], self)

    @property
    def embedding(self) -> np.ndarray:
        """This example's row of its table's float64 matrix (a view)."""
        d = self.__dict__
        return d["_table"]._cols[EMBEDDING][d["_row"]]

    @embedding.setter
    def embedding(self, value: np.ndarray) -> None:
        d = self.__dict__
        d["_table"].write_embedding(d["_row"], value)

    tokens = _derived_scalar("tokens", int, (
        "Prompt-length contribution when prepended as an in-context example."))
    embedding_norm = _derived_scalar("embedding_norm", float, (
        "The stored ``float(np.linalg.norm(embedding))`` for similarity math."))
    plaintext_bytes = _derived_scalar("plaintext_bytes", int, (
        "Cache weight: the example is stored in plaintext (section 4.3)."))

    def journal_row(self) -> tuple:
        """:meth:`ExampleTable.journal_row` of this example's row."""
        d = self.__dict__
        return d["_table"].journal_row(d["_row"])

    def detached_copy(self) -> "Example":
        """An independent standalone Example with identical current state.

        A cached example is a row of its cache's columnar table, so it
        cannot be added to a second cache; offline tools and benchmarks
        that build secondary pools over live examples take copies instead.
        Bookkeeping (EMA streams included) is copied by value: this row's
        :meth:`journal_row`, written into the copy's.
        """
        copy = Example(self.example_id, self.request, self.response_text,
                       self.embedding, self.quality, self.source_model,
                       self.source_cost)
        copy.__dict__["_table"].write_journal_row(0, self.journal_row())
        return copy

    def view(self) -> ExampleView:
        """The minimal view handed to the LLM's ICL model (the latent norm
        is taken at the first view, again only after a text rebind)."""
        d = self.__dict__
        cols, row = d["_table"]._cols, d["_row"]
        latent = d["request"].latent
        if "_latent_norm" not in d:
            d["_latent_norm"] = latent_norm(latent)
        return _new_view((latent, float(cols["quality"][row]),
                          int(cols["tokens"][row]), d["_latent_norm"]))

    def record_access(self) -> None:
        self.access_count += 1

    def record_use(self, gain: float, quality: float, offload: float) -> None:
        """Feed the three bookkeeping streams after one repurposing."""
        d = self.__dict__
        d["_table"].record_use(d["_row"], gain, quality, offload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pooled = self.__dict__["_table"]._owners is not None
        return (f"Example({self.example_id!r}, quality={self.quality:.3f}, "
                f"tokens={self.tokens}, "
                f"{'cached' if pooled else 'standalone'})")
