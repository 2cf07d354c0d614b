"""The cached example record."""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import EMA
from repro.core.table import EMBEDDING, ColumnEMA
from repro.llm.icl import ExampleView
from repro.utils.tokens import count_tokens
from repro.workload.request import Request


def _table_scalar(column: str, cast) -> property:
    """A bookkeeping field stored either locally or in a table slot.

    Detached examples keep the raw assigned value in ``__dict__`` (exactly
    the old dataclass behavior); once attached to an
    :class:`~repro.core.table.ExampleTable` the field reads and writes the
    example's column slot, cast back to the plain Python scalar the rest of
    the system always saw — so decisions downstream stay bit-identical.
    """
    local = "_x_" + column

    def fget(self):
        d = self.__dict__
        table = d["_table"]
        if table is None:
            return d[local]
        return cast(table._cols[column][d["_row"]])

    def fset(self, value):
        d = self.__dict__
        table = d["_table"]
        if table is None:
            d[local] = value
        else:
            table._cols[column][d["_row"]] = value

    return property(fget, fset)


def _table_ema(stream: str) -> property:
    """An EMA bookkeeping stream: a real EMA when detached, a
    :class:`~repro.core.table.ColumnEMA` view over the table slot when
    attached (the view object is cached per example)."""
    local = "_x_" + stream
    view_key = "_view_" + stream

    def fget(self):
        d = self.__dict__
        if d["_table"] is None:
            return d[local]
        view = d.get(view_key)
        if view is None:
            view = ColumnEMA(self, stream)
            d[view_key] = view
        return view

    def fset(self, value):
        d = self.__dict__
        table = d["_table"]
        if table is None:
            d[local] = value
        else:
            table.write_ema(d["_row"], stream, value)

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
    fields and the embedding are properties: standalone examples store them
    per object, cached examples store them in the owning cache's columnar
    :class:`~repro.core.table.ExampleTable` (which is what lets decay,
    eviction, stage-2 scoring and snapshot restore run over contiguous
    arrays).  Only ``ExampleTable`` and these property setters may write the
    table-backed fields — ``reprolint`` WAL003 enforces that.  A cached
    example's ``embedding`` is a view of its table row, read afresh on every
    access: use it, do not keep it across an eviction (a swap-delete may
    move another row into its place); ``np.array(ex.embedding)`` copies.
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
        d = self.__dict__
        d["_table"] = None
        d["_row"] = -1
        self.example_id = example_id
        self.request = request
        self.response_text = response_text
        # A copy: the caller's array may be another cached example's row.
        d["_x_embedding"] = np.array(embedding, dtype=float)
        self.quality = quality
        self.source_model = source_model
        self.source_cost = source_cost
        self.created_at = created_at
        self.access_count = access_count
        self.replay_count = replay_count
        self.gain_ema = gain_ema if gain_ema is not None else EMA(alpha=0.2)
        self.offload_gain = (offload_gain if offload_gain is not None
                             else EMA(alpha=0.3))
        self.feedback_quality = (feedback_quality if feedback_quality is not None
                                 else EMA(alpha=0.3))
        # Prime the memos at construction: stage-2 scoring touches tokens and
        # the embedding norm for every candidate, and at large bank sizes
        # candidates are mostly first-seen, so a lazy memo would miss on the
        # serve path nearly every time.
        _ = self.tokens
        _ = self.embedding_norm

    @classmethod
    def _attached_view(cls, table, row: int, example_id: str, request: Request,
                       response_text: str, source_model: str) -> "Example":
        """A cheap Example bound to an existing table row (bulk restore).

        Skips ``__init__`` entirely: validation, memo priming, and EMA
        construction already happened when the row was first written, so a
        snapshot restore only pays four ``__dict__`` stores per example.
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
        # The token count and plaintext size are memoized (they sit on the
        # per-candidate serve and eviction hot paths); drop the memo — or
        # eagerly refresh the table slot — when the text they derive from is
        # rebound.  Replay refinement rebinding ``response_text`` in place
        # is the case that makes this necessary.
        if name in ("response_text", "request"):
            d = self.__dict__
            d.pop("_tokens_memo", None)
            d.pop("_bytes_memo", None)
            object.__setattr__(self, name, value)
            table = d["_table"]
            if table is not None:
                table.refresh_text_stats(d["_row"], self)
            return
        object.__setattr__(self, name, value)

    @property
    def embedding(self) -> np.ndarray:
        """This object's own array while detached, its table row if cached."""
        d = self.__dict__
        table = d["_table"]
        if table is None:
            return d["_x_embedding"]
        return table._cols[EMBEDDING][d["_row"]]

    @embedding.setter
    def embedding(self, value: np.ndarray) -> None:
        d = self.__dict__
        table = d["_table"]
        if table is None:
            d.pop("_norm_memo", None)
            d["_x_embedding"] = np.asarray(value, dtype=float)
        else:
            table.write_embedding(d["_row"], value)

    def _compute_tokens(self) -> int:
        return count_tokens(self.request.text) + count_tokens(self.response_text)

    def _compute_bytes(self) -> int:
        return (
            len(self.request.text.encode("utf-8"))
            + len(self.response_text.encode("utf-8"))
        )

    @property
    def tokens(self) -> int:
        """Prompt-length contribution when prepended as an in-context example."""
        d = self.__dict__
        table = d["_table"]
        if table is not None:
            return int(table._cols["tokens"][d["_row"]])
        memo = d.get("_tokens_memo")
        if memo is None:
            memo = self._compute_tokens()
            d["_tokens_memo"] = memo
        return memo

    @property
    def embedding_norm(self) -> float:
        """Memoized ``float(np.linalg.norm(embedding))`` for similarity math."""
        d = self.__dict__
        table = d["_table"]
        if table is not None:
            return float(table._cols["embedding_norm"][d["_row"]])
        memo = d.get("_norm_memo")
        if memo is None:
            memo = float(np.linalg.norm(self.embedding))
            d["_norm_memo"] = memo
        return memo

    @property
    def plaintext_bytes(self) -> int:
        """Cache weight: the example is stored in plaintext (section 4.3)."""
        d = self.__dict__
        table = d["_table"]
        if table is not None:
            return int(table._cols["plaintext_bytes"][d["_row"]])
        memo = d.get("_bytes_memo")
        if memo is None:
            memo = self._compute_bytes()
            d["_bytes_memo"] = memo
        return memo

    def journal_row(self) -> tuple:
        """:meth:`ExampleTable.journal_row` of this example's row.  The
        journal records cache mutations, so only a cached example has one."""
        d = self.__dict__
        table = d["_table"]
        if table is None:
            raise ValueError(f"example {self.example_id!r} is not cached")
        return table.journal_row(d["_row"])

    def detached_copy(self) -> "Example":
        """An independent, detached Example with identical current state.

        A cached example is bound to its cache's columnar table, so it
        cannot be added to a second cache; offline tools and benchmarks
        that build secondary pools over live examples take copies instead.
        Bookkeeping (EMA streams included) is copied by value.
        """
        def ema_copy(stream) -> EMA:
            copy = EMA(alpha=stream.alpha)
            copy._value = stream._value
            copy.count = stream.count
            return copy

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
            gain_ema=ema_copy(self.gain_ema),
            offload_gain=ema_copy(self.offload_gain),
            feedback_quality=ema_copy(self.feedback_quality),
        )

    def view(self) -> ExampleView:
        """The minimal view handed to the LLM's ICL model."""
        d = self.__dict__
        table = d["_table"]
        if table is None:
            return ExampleView(self.request.latent, self.quality, self.tokens)
        cols, row = table._cols, d["_row"]
        return ExampleView(self.request.latent, float(cols["quality"][row]),
                           int(cols["tokens"][row]))

    def record_access(self) -> None:
        self.access_count += 1

    def record_use(self, gain: float, quality: float, offload: float) -> None:
        """Feed the three bookkeeping streams after one repurposing."""
        d = self.__dict__
        table = d["_table"]
        if table is not None:
            table.record_use(d["_row"], gain, quality, offload)
        else:
            self.gain_ema.update(gain)
            self.feedback_quality.update(quality)
            self.offload_gain.update(offload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Example({self.example_id!r}, quality={self.quality:.3f}, "
                f"tokens={self.tokens}, "
                f"{'attached' if self.__dict__['_table'] is not None else 'detached'})")
