"""The cached example record."""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import EMA
from repro.core.table import EMBEDDING, ColumnEMA, ExampleTable, ema_column
from repro.llm.icl import ExampleView
from repro.workload.request import Request


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


def _table_ema(stream: str) -> property:
    """An EMA bookkeeping stream: a :class:`~repro.core.table.ColumnEMA`
    view over the table slots (the view object is cached per example, and
    follows the example from table to table)."""
    view_key = "_view_" + stream

    def fget(self):
        d = self.__dict__
        view = d.get(view_key)
        if view is None:
            view = ColumnEMA(self, stream)
            d[view_key] = view
        return view

    def fset(self, value):
        d = self.__dict__
        d["_table"].write_ema(d["_row"], stream, value)

    return property(fget, fset)


class Example:
    """One historical request-response pair stored in the example cache.

    Bookkeeping fields drive the Example Manager (section 4.3):

    * ``gain_ema`` accumulates the replay-potential G(e) each time the example
      is repurposed;
    * ``offload_gain`` counts successful offloadings (the knapsack *value*,
      decayed hourly);
    * ``feedback_quality`` tracks observed response quality of requests this
      example augmented (the ``normalized_response_quality`` term of G(e)).

    The constructor signature matches the original dataclass.  Bookkeeping
    fields and the embedding are properties over one row of one
    :class:`~repro.core.table.ExampleTable`: the owning cache's columnar
    table (which is what lets decay, eviction, stage-2 scoring and snapshot
    restore run over contiguous arrays), or a one-row table of the
    example's own while no cache holds it.  Only ``ExampleTable`` and these
    property setters may write the table-backed fields — ``reprolint``
    WAL003 enforces that.  ``embedding`` is a view of the table row, read
    afresh on every access: use it, do not keep it across an add or an
    eviction (the row moves between tables, and a swap-delete may move
    another row into its place); ``np.array(ex.embedding)`` copies.
    """

    def __init__(self, example_id: str, request: Request, response_text: str,
                 embedding: np.ndarray, quality: float, source_model: str,
                 source_cost: float, created_at: float = 0.0,
                 access_count: int = 0, replay_count: int = 0,
                 gain_ema: EMA | None = None, offload_gain: EMA | None = None,
                 feedback_quality: EMA | None = None) -> None:
        if not 0.0 <= quality <= 1.0:
            raise ValueError(
                f"example {example_id}: quality must be in [0, 1], "
                f"got {quality}"
            )
        if np.ndim(embedding) != 1:
            raise ValueError(f"example {example_id}: embedding shape "
                             f"{np.shape(embedding)} is not 1-D")
        d = self.__dict__
        d["_table"] = table = ExampleTable.standalone(len(embedding))
        d["_row"] = 0
        d["example_id"] = example_id
        d["request"] = request
        d["source_model"] = source_model
        # Binding the second text measures tokens and plaintext size
        # (stage-2 scoring and eviction read them per candidate).
        self.response_text = response_text
        # Copied in: the caller's array may be another cached example's row.
        table.write_embedding(0, embedding)
        cols = table._cols
        cols["quality"][0] = quality
        cols["source_cost"][0] = source_cost
        cols["created_at"][0] = created_at
        cols["access_count"][0] = access_count
        cols["replay_count"][0] = replay_count
        for stream, ema, alpha in (("gain_ema", gain_ema, 0.2),
                                   ("offload_gain", offload_gain, 0.3),
                                   ("feedback_quality", feedback_quality, 0.3)):
            if ema is None:     # a fresh stream: the zeroed slots, its alpha
                cols[ema_column(stream, "alpha")][0] = alpha
            else:
                table.write_ema(0, stream, ema)

    @classmethod
    def _attached_view(cls, table, row: int, example_id: str, request: Request,
                       response_text: str, source_model: str) -> "Example":
        """A cheap Example bound to an existing table row (bulk restore).

        Skips ``__init__`` entirely: validation and the row's derived
        columns were settled when the row was first written, so a snapshot
        restore only pays four ``__dict__`` stores per example.
        """
        self = object.__new__(cls)
        d = self.__dict__
        d["example_id"] = example_id
        d["request"] = request
        d["response_text"] = response_text
        d["source_model"] = source_model
        table.bind_owner(row, self)
        return self

    quality = _table_scalar("quality", float)
    created_at = _table_scalar("created_at", float)
    access_count = _table_scalar("access_count", int)
    replay_count = _table_scalar("replay_count", int)
    source_cost = _table_scalar("source_cost", float)

    gain_ema = _table_ema("gain_ema")
    offload_gain = _table_ema("offload_gain")
    feedback_quality = _table_ema("feedback_quality")

    def __setattr__(self, name: str, value: object) -> None:
        # The token count and plaintext size sit on the per-candidate serve
        # and eviction hot paths, so their table slots are refreshed when
        # the text they derive from is rebound.  Replay refinement
        # rebinding ``response_text`` in place is the case that makes this
        # necessary.
        object.__setattr__(self, name, value)
        if name in ("response_text", "request"):
            d = self.__dict__
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
        Bookkeeping (EMA streams included) is copied by value.
        """
        return Example(
            example_id=self.example_id,
            request=self.request,
            response_text=self.response_text,
            embedding=self.embedding,
            quality=self.quality,
            source_model=self.source_model,
            source_cost=self.source_cost,
            created_at=self.created_at,
            access_count=self.access_count,
            replay_count=self.replay_count,
            gain_ema=self.gain_ema,
            offload_gain=self.offload_gain,
            feedback_quality=self.feedback_quality,
        )

    def view(self) -> ExampleView:
        """The minimal view handed to the LLM's ICL model."""
        d = self.__dict__
        cols, row = d["_table"]._cols, d["_row"]
        return ExampleView(self.request.latent, float(cols["quality"][row]),
                           int(cols["tokens"][row]))

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
