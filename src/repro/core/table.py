"""Struct-of-arrays storage for example bookkeeping (the columnar table).

Every numeric bookkeeping field of :class:`repro.core.example.Example` lives
here as one contiguous numpy column, mirroring the ``_ClusterBlock``
discipline of :mod:`repro.vectorstore.ivf`: parallel arrays and O(1)
swap-with-last removal.  ``Example`` stays the public API — its bookkeeping
attributes are properties over its row's slots, in a cache's table or in a
one-row table of its own — and the lifecycle hot paths do not pay
per-object Python cost:

* ``ExampleManager.apply_decay`` multiplies two value columns by one scalar
  (``values *= factor ** periods``) instead of looping ``EMA.decay`` over
  the pool — bit-identical, because the scalar elementwise multiply is the
  exact IEEE operation the per-object loop performs;
* ``ExampleManager.enforce_capacity`` hands the knapsack kernel live column
  views in row order, with the ``INSERTION_RANK`` column as the tie-break,
  instead of building a Python object per example;
* ``proxy_features_matrix`` fills its feature columns from table gathers —
  embeddings too: the table owns the pool's one float64 ``(n, dim)`` matrix
  (rows swap-delete like any column; ``Example.embedding`` is a row view);
* ``ExampleManager.record_use`` is one :meth:`ExampleTable.record_use`;
* snapshots serialize the columns as bulk arrays (plus offset-indexed
  UTF-8 string blobs), so restore is array adoption plus cheap view
  construction instead of per-example JSON decoding.

The EMA streams are stored as four columns each (value, initialized, count,
alpha); :class:`ColumnEMA` is an :class:`repro.analysis.stats.EMA` over one
stream's slot, doing that class's arithmetic in Python floats so every
update/decay is bit-equal to a plain object's.

Mutation discipline: columns may only be written by this module and by
``Example``'s property setters — ``reprolint``'s WAL003 rule flags direct
``__dict__``/column writes from anywhere else, because a bypassed write
desynchronizes the journaled state the WAL/snapshot machinery replays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.stats import EMA
from repro.utils.tokens import count_tokens

#: Scalar bookkeeping columns (name -> dtype).  WAL003 parses this literal
#: (and EMA_STREAMS below) structurally to learn which attribute names are
#: table-backed; keep it a plain tuple of plain strings.
BOOKKEEPING_COLUMNS = (
    "quality",
    "created_at",
    "access_count",
    "replay_count",
    "source_cost",
    "plaintext_bytes",
    "tokens",
    "embedding_norm",
)

#: The three EMA bookkeeping streams, each stored as value/initialized/
#: count/alpha columns named ``{stream}__{field}``.
EMA_STREAMS = ("gain_ema", "offload_gain", "feedback_quality")

EMA_FIELDS = ("value", "initialized", "count", "alpha")
_VALUE, _INITIALIZED, _COUNT, _ALPHA = range(len(EMA_FIELDS))

#: The columns outside :data:`COLUMN_SCHEMA`.  ``INSERTION_RANK``: where each
#: row's example sits in the cache's insertion order; derived state, rebuilt
#: on restore from the order rows are bound in.  ``EMBEDDING``: the float64
#: ``(n, dim)`` matrix, allocated when the first example attaches (which
#: fixes ``dim``).  ``EMBEDDING_ROW_NORM``: derived, see :func:`row_norm`.
INSERTION_RANK = "insertion_rank"
EMBEDDING = "embedding"
EMBEDDING_ROW_NORM = "embedding_row_norm"

_SCALAR_DTYPES = {
    "quality": np.float64,
    "created_at": np.float64,
    "access_count": np.int64,
    "replay_count": np.int64,
    "source_cost": np.float64,
    "plaintext_bytes": np.int64,
    "tokens": np.int64,
    "embedding_norm": np.float64,
}

_EMA_DTYPES = {
    "value": np.float64,
    "initialized": np.bool_,
    "count": np.int64,
    "alpha": np.float64,
}


def ema_column(stream: str, field: str) -> str:
    """The column key for one field of one EMA stream."""
    return f"{stream}__{field}"


#: ``stream -> (value, initialized, count, alpha)`` column keys.
_EMA_KEYS = {stream: tuple(ema_column(stream, field) for field in EMA_FIELDS)
             for stream in EMA_STREAMS}


def row_norm(vector: np.ndarray) -> float:
    """One row's entry of ``np.linalg.norm(matrix, axis=1)``, bit for bit,
    whatever other rows the matrix holds: stage 2's divisor.  That is a
    pairwise ``add.reduce`` of squares; the 1-D ``np.linalg.norm`` behind
    ``embedding_norm`` is a BLAS dot and differs in the last bit, hence two
    columns."""
    return math.sqrt(np.add.reduce(vector * vector))


#: Every persisted column of the table as (name, dtype), in canonical order.
COLUMN_SCHEMA = tuple(
    [(name, np.dtype(_SCALAR_DTYPES[name])) for name in BOOKKEEPING_COLUMNS]
    + [(ema_column(stream, field), np.dtype(_EMA_DTYPES[field]))
       for stream in EMA_STREAMS for field in EMA_FIELDS])


def attached_rows(examples) -> "tuple[ExampleTable, np.ndarray] | None":
    """(table, rows) when every example is a row of one table, else None.

    The hot-path gate for columnar reads: cache-sourced candidate lists
    always qualify; lists mixing tables (standalone examples each have
    their own) fall back to per-object reads.
    """
    if not examples:
        return None
    dicts = [example.__dict__ for example in examples]
    table = dicts[0]["_table"]
    for d in dicts:
        if d["_table"] is not table:
            return None
    return table, np.array([d["_row"] for d in dicts], dtype=np.intp)


class ColumnEMA(EMA):
    """An :class:`repro.analysis.stats.EMA` whose state is one stream's
    slot in an ExampleTable.

    The three stored fields — ``alpha``, ``count``, ``_value`` — read and
    write the example's current table row; ``value``/``initialized``/
    ``update``/``decay`` are the base class's, so the arithmetic is the
    plain EMA's, in Python floats on values round-tripped through float64
    columns: bit-identical results.
    """

    __slots__ = ("_example", "_stream")     # no per-view ``__dict__``

    def __init__(self, example, stream: str) -> None:
        self._example = example
        self._stream = stream

    def _slot(self, field: int):
        """(column, row) of one of the stream's ``EMA_FIELDS``, by position."""
        d = self._example.__dict__
        return d["_table"]._cols[_EMA_KEYS[self._stream][field]], d["_row"]

    @property
    def alpha(self) -> float:
        col, row = self._slot(_ALPHA)
        return float(col[row])

    @alpha.setter
    def alpha(self, value: float) -> None:
        col, row = self._slot(_ALPHA)
        col[row] = value

    @property
    def count(self) -> int:
        col, row = self._slot(_COUNT)
        return int(col[row])

    @count.setter
    def count(self, value: int) -> None:
        col, row = self._slot(_COUNT)
        col[row] = value

    @property
    def _value(self) -> float | None:
        init, row = self._slot(_INITIALIZED)
        if not init[row]:
            return None
        col, _ = self._slot(_VALUE)
        return float(col[row])

    @_value.setter
    def _value(self, value: float | None) -> None:
        init, row = self._slot(_INITIALIZED)
        col, _ = self._slot(_VALUE)
        if value is None:
            init[row] = False
            col[row] = 0.0
        else:
            init[row] = True
            col[row] = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnEMA({self._stream}, value={self._value!r}, "
                f"alpha={self.alpha}, count={self.count})")


class ExampleTable:
    """Contiguous columnar bookkeeping for a pool of examples.

    Every :class:`~repro.core.example.Example` is one row of one table from
    construction on: a standalone example holds a one-row table of its own
    (:meth:`standalone`), ``attach`` moves that row into a cache's table
    and rebinds the example, ``detach`` moves it back out and swap-deletes.
    Rows are dense in [0, n): removal moves the last row into the hole and
    rebinds that example's row index, exactly like ``_ClusterBlock`` does
    for index vectors.  Row order is therefore an artifact of mutation
    history and carries no meaning of its own; the table knows no ids (the
    cache's id map is the one there is, and an example carries its row).
    Consumers either gather by the rows of the examples they hold
    (snapshots, proxy features) or read whole columns in row order beside
    the ``INSERTION_RANK`` column, which travels with each row and says
    where its example sits in the cache's insertion order — the order
    eviction ties, eviction sequence and replay ranking ties are defined
    in.  Ranks increase strictly in the order examples entered the pool
    (gaps where examples left), so ``argsort`` of the column is insertion
    order.  ``total_bytes`` is the running sum of the ``plaintext_bytes``
    column, moved wherever that column is written.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._n = 0
        self._capacity = max(int(capacity), 0)
        self._cols: dict[str, np.ndarray] = {
            name: np.zeros(self._capacity, dtype=dtype)
            for name, dtype in COLUMN_SCHEMA
        }
        self._cols[INSERTION_RANK] = np.zeros(self._capacity, dtype=np.int64)
        self._cols[EMBEDDING_ROW_NORM] = np.zeros(self._capacity)
        self._owners: list | None = []
        self._next_rank = 0
        self.total_bytes = 0

    @classmethod
    def standalone(cls, dim: int) -> "ExampleTable":
        """The one-row table of an example no cache holds.  It keeps no
        owners list — that is what tells it from a pool (and spares every
        standalone example a reference cycle)."""
        table = cls(1)
        table._cols[EMBEDDING] = np.zeros((1, dim))
        table._n = 1
        table._owners = None
        return table

    def __len__(self) -> int:
        return self._n

    # -- access -------------------------------------------------------------

    def col(self, name: str) -> np.ndarray:
        """The live length-n view of one column.

        Callers may read it (including fancy-indexed gathers) but must not
        hold it across attach/detach: growth reallocates the backing array.
        """
        return self._cols[name][: self._n]

    def owner(self, row: int):
        """The Example object bound to a row (None only mid-adoption)."""
        return self._owners[row]

    def gather(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Copies of every column gathered in the given row order."""
        return {name: self._cols[name][: self._n][rows]
                for name, _ in COLUMN_SCHEMA}

    def journal_row(self, row: int) -> tuple:
        """One row's bookkeeping in the journal's wire order: quality,
        source_cost, created_at, access_count, replay_count, then alpha,
        value, count per EMA stream, last the bitmask of initialized
        streams.  Numpy scalars as they lie (``struct`` packs them
        unchanged); an uninitialized stream's value slot holds 0.0."""
        cols = self._cols
        out = [cols["quality"][row], cols["source_cost"][row],
               cols["created_at"][row], cols["access_count"][row],
               cols["replay_count"][row]]
        flags = 0
        for bit, stream in enumerate(EMA_STREAMS):
            value, initialized, count, alpha = _EMA_KEYS[stream]
            out += (cols[alpha][row], cols[value][row], cols[count][row])
            flags |= bool(cols[initialized][row]) << bit
        return (*out, flags)

    def nbytes(self) -> int:
        """Resident bytes of the allocated column storage."""
        return sum(arr.nbytes for arr in self._cols.values())

    # -- membership ---------------------------------------------------------

    def _grow(self, need: int) -> None:
        capacity = max(8, self._capacity)
        while capacity < need:
            capacity *= 2
        for name, arr in self._cols.items():
            grown = np.zeros((capacity,) + arr.shape[1:], dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            self._cols[name] = grown
        self._capacity = capacity

    def _move_row(self, row: int, example) -> None:
        """Copy every column of ``example``'s row into ``row`` here, then
        rebind the example to it."""
        d = example.__dict__
        source, source_row = d["_table"]._cols, d["_row"]
        for name, arr in self._cols.items():
            arr[row] = source[name][source_row]
        d["_table"] = self
        d["_row"] = row

    def attach(self, example) -> int:
        """Move a standalone example's row into a new row of this table."""
        source = example.__dict__["_table"]
        if source._owners is not None:
            raise ValueError(
                f"example {example.example_id!r} is already attached")
        cols = self._cols
        if self._n == self._capacity:
            self._grow(self._n + 1)
        if EMBEDDING not in cols:       # the first row fixes the pool's dim
            cols[EMBEDDING] = np.zeros(
                (self._capacity, source._cols[EMBEDDING].shape[1]))
        row = self._n
        self._move_row(row, example)    # an embedding of another dim fails
        cols[INSERTION_RANK][row] = self._next_rank
        self._next_rank += 1
        self._n = row + 1
        self._owners.append(example)
        self.total_bytes += int(cols["plaintext_bytes"][row])
        return row

    def replace(self, previous, example) -> None:
        """Swap ``example`` in for ``previous`` at the same insertion rank.

        The cache's overwrite: the new object keeps the place in insertion
        order its id already holds.  It is attached before ``previous``
        leaves, so a refused example changes nothing, and the swap-delete
        then moves it into the row ``previous`` held.
        """
        row = self.attach(example)      # may grow: read the column after
        ranks = self._cols[INSERTION_RANK]
        ranks[row] = ranks[previous.__dict__["_row"]]
        self.detach(previous)

    def detach(self, example) -> None:
        """Move a row out into a standalone table and swap-delete it."""
        d = example.__dict__
        if d["_table"] is not self:
            raise ValueError(
                f"example {example.example_id!r} is not attached here")
        row = d["_row"]
        cols = self._cols
        out = ExampleTable.standalone(cols[EMBEDDING].shape[1])
        out._move_row(0, example)
        out.total_bytes = int(cols["plaintext_bytes"][row])
        self.total_bytes -= out.total_bytes
        last = self._n - 1
        if row != last:
            for arr in cols.values():
                arr[row] = arr[last]
            moved = self._owners[last]
            self._owners[row] = moved
            moved.__dict__["_row"] = row
        self._owners.pop()
        self._n = last

    def write_ema(self, row: int, stream: str, ema) -> None:
        """Overwrite one stream's slot from an EMA-like object's state."""
        cols = self._cols
        value, initialized, count, alpha = _EMA_KEYS[stream]
        raw = ema._value
        cols[value][row] = 0.0 if raw is None else raw
        cols[initialized][row] = raw is not None
        cols[count][row] = ema.count
        cols[alpha][row] = ema.alpha

    # -- derived-column maintenance ----------------------------------------

    def refresh_text_stats(self, row: int, example) -> None:
        """Recompute tokens/plaintext_bytes after a text rebind."""
        asked, answered = example.request.text, example.response_text
        self._cols["tokens"][row] = (count_tokens(asked)
                                     + count_tokens(answered))
        sizes = self._cols["plaintext_bytes"]
        size = len(asked.encode("utf-8")) + len(answered.encode("utf-8"))
        self.total_bytes += size - int(sizes[row])
        sizes[row] = size

    def write_embedding(self, row: int, embedding: np.ndarray) -> None:
        """Rebind one row's embedding and refresh both of its norms."""
        stored = self._cols[EMBEDDING][row]
        stored[:] = embedding
        self._cols["embedding_norm"][row] = float(np.linalg.norm(stored))
        self._cols[EMBEDDING_ROW_NORM][row] = row_norm(stored)

    # -- per-request bookkeeping ---------------------------------------------

    def record_use(self, row: int, gain: float, quality: float,
                   offload: float) -> None:
        """One repurposing of the example at ``row``: three
        :meth:`ColumnEMA.update` s (same Python-float arithmetic) without
        the per-field round trips."""
        cols = self._cols
        for stream, x in (("gain_ema", gain), ("feedback_quality", quality),
                          ("offload_gain", offload)):
            value, initialized, count, alpha = _EMA_KEYS[stream]
            values = cols[value]
            if cols[initialized][row]:
                a = float(cols[alpha][row])
                values[row] = a * float(x) + (1.0 - a) * float(values[row])
            else:
                values[row] = float(x)
                cols[initialized][row] = True
            cols[count][row] += 1

    def record_access(self, rows) -> None:
        """``Example.record_access`` for each of ``rows``."""
        counts = self._cols["access_count"]
        for row in rows:
            counts[row] += 1

    # -- vectorized lifecycle ------------------------------------------------

    def decay_gains(self, factor: float, periods: int) -> None:
        """Decay the offload-gain and gain EMA streams over the whole pool.

        Bit-identical to looping ``EMA.decay(factor, periods)`` per
        example: the multiplier is the same scalar ``factor ** periods``
        each of those calls computes, the elementwise float64 multiply is
        the same IEEE operation, and uninitialized rows hold 0.0 (which
        the multiply preserves) just as ``decay`` skips ``_value is None``.
        """
        if periods <= 0 or self._n == 0:
            return
        mult = factor**periods
        n = self._n
        self._cols[ema_column("offload_gain", "value")][:n] *= mult
        self._cols[ema_column("gain_ema", "value")][:n] *= mult

    # -- bulk restore --------------------------------------------------------

    @classmethod
    def adopt_columns(cls, n: int, columns: dict[str, np.ndarray],
                      embeddings: np.ndarray) -> "ExampleTable":
        """Build a table directly over restored column arrays (no copies).

        The arrays (``embeddings`` is the ``(n, dim)`` matrix, in row
        order) may be copy-on-write memmap views from a snapshot sidecar:
        in-place mutation then dirties private pages, never the file.
        Owners must be bound afterwards via :meth:`bind_owner`, one per row.
        """
        table = object.__new__(cls)
        table._n = int(n)
        table._capacity = int(n)
        cols: dict[str, np.ndarray] = {}
        for name, dtype in COLUMN_SCHEMA:
            arr = np.asarray(columns[name])
            if arr.dtype != dtype:
                arr = arr.astype(dtype)
            if arr.shape != (table._n,):
                raise ValueError(
                    f"column {name!r}: expected shape ({n},), "
                    f"got {arr.shape}")
            cols[name] = arr
        cols[INSERTION_RANK] = np.zeros(table._n, dtype=np.int64)
        if table._n:    # an empty pool's dim is set by its first attach
            cols[EMBEDDING] = np.asarray(
                embeddings, dtype=np.float64).reshape(table._n, -1)
        cols[EMBEDDING_ROW_NORM] = np.linalg.norm(
            cols[EMBEDDING], axis=1) if table._n else np.zeros(0)
        table._cols = cols
        table._owners = [None] * table._n
        table._next_rank = 0
        table.total_bytes = int(cols["plaintext_bytes"].sum())
        return table

    def bind_owner(self, row: int, example) -> None:
        """Bind a restored Example view to its row (adoption path only).

        Binding order is insertion order: the caller builds the cache's
        id dict in the same pass.
        """
        self._owners[row] = example
        self._cols[INSERTION_RANK][row] = self._next_rank
        self._next_rank += 1
        d = example.__dict__
        d["_table"] = self
        d["_row"] = row
