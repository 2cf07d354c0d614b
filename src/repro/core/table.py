"""Struct-of-arrays storage for example bookkeeping (the columnar table).

Every numeric bookkeeping field of :class:`repro.core.example.Example` lives
here as one contiguous numpy column, mirroring the
:class:`~repro.vectorstore.flat.FlatIndex` discipline: parallel arrays and O(1)
swap-with-last removal.  ``Example`` keeps its texts and ids; its scalar
bookkeeping attributes are properties over its row's slots, in a cache's
table, in that pool's departures once evicted, or in a one-row table of its
own.  An admission writes its example once, into the pool's next free row,
and an eviction copies the row out once, into the departures.  Every
lifecycle path reads and writes columns, with no per-object Python:

* ``ExampleManager.apply_decay`` multiplies two value columns by one scalar
  (``values *= factor ** periods``);
* ``ExampleManager.enforce_capacity`` hands the knapsack kernel live column
  views in row order, with the ``INSERTION_RANK`` column as the tie-break;
* ``ReplayEngine`` ranks on the ``gain_ema`` columns and cuts off on its
  value column;
* ``proxy_features_matrix`` fills its feature columns from table gathers —
  embeddings too: the table owns the pool's one float64 ``(n, dim)`` matrix
  (rows swap-delete like any column; ``Example.embedding`` is a row view);
* ``ExampleManager.record_use`` is one :meth:`ExampleTable.record_use`;
* snapshots serialize the columns as bulk arrays (plus offset-indexed
  UTF-8 string blobs), so restore is array adoption plus cheap view
  construction instead of per-example JSON decoding.

The three EMA streams (G(e), offload gain, feedback quality) are four
columns each (value, initialized, count, alpha), read as columns and
written only by the methods here; an uninitialized stream's value slot
holds 0.0.

Mutation discipline: columns may only be written by this module and by
``Example``'s property setters — ``reprolint``'s WAL003 rule flags direct
``__dict__``/column writes from anywhere else, because a bypassed write
desynchronizes the journaled state the WAL/snapshot machinery replays.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.embedding.similarity import vector_norm
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
#: :meth:`ExampleTable.journal_row`'s numeric slots, in its wire order, and
#: the columns its bitmask of initialized streams is read from.
_JOURNAL_COLUMNS = ("quality", "source_cost", "created_at", "access_count",
                    "replay_count") + tuple(
    _EMA_KEYS[stream][i] for stream in EMA_STREAMS for i in (3, 0, 2))
_INITIALIZED = tuple(_EMA_KEYS[stream][1] for stream in EMA_STREAMS)
#: A fresh example's streams in that order: alpha 0.2 for G(e), else 0.3.
_FRESH_STREAMS = (0.2, 0.0, 0, 0.3, 0.0, 0, 0.3, 0.0, 0, 0)


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


class ExampleTable:
    """Contiguous columnar bookkeeping for a pool of examples.

    Every :class:`~repro.core.example.Example` is one row of one table from
    construction on: a standalone example holds a one-row table of its own
    (:meth:`standalone`), ``attach`` copies that row into a cache's table
    and rebinds the example.  An admitted example never has one:
    :meth:`reserve_row` and :meth:`write_new_row` write it into the next
    free row, which :meth:`attach_next` makes a member.  ``detach`` copies
    a row out into the pool's departures and swap-deletes; the departures
    are one non-pool table whose rows are reused once their example is
    gone or bound elsewhere, so an evicted example stays readable and
    writable wherever it is held, and no table is allocated per eviction.
    Rows are dense in [0, n): removal moves the last row into the hole and
    rebinds that example's row index, exactly like ``FlatIndex`` does
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
        self._departures: ExampleTable | None = None

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
        flags = 0
        for bit, key in enumerate(_INITIALIZED):
            flags |= bool(cols[key][row]) << bit
        return (*[cols[key][row] for key in _JOURNAL_COLUMNS], flags)

    def write_journal_row(self, row: int, values) -> None:
        """The inverse of :meth:`journal_row`: write such a tuple back into
        ``row``, every slot as it lies (the texts, the embedding and the
        columns derived from them are the example's own business)."""
        cols = self._cols
        for key, value in zip(_JOURNAL_COLUMNS, values):
            cols[key][row] = value
        for bit, key in enumerate(_INITIALIZED):
            cols[key][row] = bool(values[-1] >> bit & 1)

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

    def reserve_row(self, dim: int) -> int:
        """The next free row, grown into if need be.  An empty table takes
        ``dim`` as its matrix's width; a pool with rows refuses another."""
        row = self._n
        if row == self._capacity:
            self._grow(row + 1)
        matrix = self._cols.get(EMBEDDING)
        if matrix is None or row == 0 and matrix.shape[1] != dim:
            self._cols[EMBEDDING] = np.zeros((self._capacity, dim))
        elif matrix.shape[1] != dim:
            raise ValueError(f"embedding dim ({dim},) is not the pool's "
                             f"({matrix.shape[1]},)")
        return row

    def write_new_row(self, row: int, embedding: np.ndarray, asked: str,
                      answered: str, quality: float, source_cost: float,
                      created_at: float, access_count: int = 0,
                      replay_count: int = 0) -> None:
        """Write every column of a new example's row, fresh EMA streams
        included; ``total_bytes`` is moved by :meth:`attach_next`."""
        self.write_embedding(row, embedding)
        cols = self._cols
        cols["tokens"][row] = count_tokens(asked) + count_tokens(answered)
        cols["plaintext_bytes"][row] = (len(asked.encode("utf-8"))
                                        + len(answered.encode("utf-8")))
        self.write_journal_row(row, (quality, source_cost, created_at,
                                     access_count, replay_count,
                                     *_FRESH_STREAMS))

    def attach(self, example) -> int:
        """Copy a standalone example's row into a new row of this table."""
        source = example.__dict__["_table"]
        if source._owners is not None:
            raise ValueError(
                f"example {example.example_id!r} is already attached")
        row = self.reserve_row(source._cols[EMBEDDING].shape[1])
        self._move_row(row, example)
        return self.attach_next(example)

    def attach_next(self, example) -> int:
        """Make the next free row a member row: ``example``'s, which
        :meth:`reserve_row` handed out and :meth:`write_new_row` (or
        :meth:`attach`'s copy) filled."""
        row = self._n
        cols = self._cols
        cols[INSERTION_RANK][row] = self._next_rank
        self._next_rank += 1
        self._n = row + 1
        self._owners.append(example)
        self.total_bytes += int(cols["plaintext_bytes"][row])
        return row

    def detach(self, example) -> None:
        """Copy a row out into the departures and swap-delete it."""
        d = example.__dict__
        if d["_table"] is not self:
            raise ValueError(
                f"example {example.example_id!r} is not attached here")
        row = d["_row"]
        cols = self._cols
        self.total_bytes -= int(cols["plaintext_bytes"][row])
        if self._departures is None:    # no pool, and a weak ref per row
            self._departures = out = self.standalone(cols[EMBEDDING].shape[1])
            out._n, out._held = 0, []
        self._departures._retire(example)
        last = self._n - 1
        if row != last:
            for arr in cols.values():
                arr[row] = arr[last]
            moved = self._owners[last]
            self._owners[row] = moved
            moved.__dict__["_row"] = row
        self._owners.pop()
        self._n = last

    def _retire(self, example) -> None:
        """Copy a departing example's row in here, first dropping the rows
        whose example is gone (or bound elsewhere) when all are taken."""
        if self._n == self._capacity:
            held = [(row, ref, d) for row, ref in enumerate(self._held)
                    if (alive := ref()) is not None
                    and (d := alive.__dict__)["_table"] is self
                    and d["_row"] == row]
            self._n = len(held)
            if held and held[-1][0] != self._n - 1:    # not yet a prefix
                rows = np.array([row for row, _, _ in held], dtype=np.intp)
                for arr in self._cols.values():
                    arr[: self._n] = arr[rows]
                for row, (_, _, d) in enumerate(held):
                    d["_row"] = row
            self._held = [ref for _, ref, _ in held]
            if 2 * self._n >= self._capacity:
                self._grow(2 * self._capacity)
        row = self._n
        self._move_row(row, example)
        self._held.append(weakref.ref(example))
        self._n = row + 1

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
        self._cols["embedding_norm"][row] = vector_norm(stored)
        self._cols[EMBEDDING_ROW_NORM][row] = row_norm(stored)

    # -- per-request bookkeeping ---------------------------------------------

    def record_use(self, row: int, gain: float, quality: float,
                   offload: float) -> None:
        """One repurposing of the example at ``row``: an EMA update of each
        stream, ``a * x + (1 - a) * value`` in Python floats (the first
        observation is taken as is)."""
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

    def reset_gain(self, row: int) -> None:
        """Replay's reset of one row's accumulated G(e): ``value *= 0.0``
        (NaN stays NaN, a negative gain becomes -0.0, an uninitialized
        slot's 0.0 stays 0.0)."""
        self._cols["gain_ema__value"][row] *= 0.0

    # -- vectorized lifecycle ------------------------------------------------

    def decay_gains(self, factor: float, periods: int) -> None:
        """Decay the offload-gain and gain EMA streams over the whole pool:
        one scalar ``factor ** periods`` times each value column
        (uninitialized rows hold 0.0, which the multiply preserves)."""
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
        table = cls()
        table._n = table._capacity = int(n)
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
        table.total_bytes = int(cols["plaintext_bytes"].sum())
        return table

    def bind_owner(self, row: int, example) -> None:
        """Own a restored Example view of its row (adoption path only).

        Binding order is insertion order: the caller builds the cache's
        id dict in the same pass.
        """
        self._owners[row] = example
        self._cols[INSERTION_RANK][row] = self._next_rank
        self._next_rank += 1
