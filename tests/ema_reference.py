"""The per-example EMA arithmetic, kept as the one oracle every bookkeeping
test computes with.

Each cached example carries three running averages (section 4.3): the
replay potential G(e) (``gain_ema``), the offload gain the knapsack values
and the hourly decay discounts (``offload_gain``), and the feedback quality
stage 2 reads (``feedback_quality``).  :class:`repro.core.table.ExampleTable`
keeps each as four columns and updates, decays and resets them as columns.
:class:`RefEMA` is the per-object arithmetic those columns must equal bit
for bit: an update is ``alpha * x + (1 - alpha) * value`` in Python floats
(the first observation taken as is), a decay multiplies an initialized
value by ``factor ** periods``.

:func:`streams` reads an example's three streams out of its
:meth:`~repro.core.example.Example.journal_row`; :func:`write_streams`
writes states back through :meth:`ExampleTable.write_journal_row`, the one
public way to set an arbitrary stream state (NaN, -0.0, uninitialized, any
i64 count).  Neither calls the table's update, decay or reset methods,
which are what the oracles check.
"""

from __future__ import annotations

from repro.core.table import EMA_STREAMS


class RefEMA:
    """One EMA stream as a plain object: ``raw`` is None until the first
    update."""

    def __init__(self, alpha: float, raw: float | None = None,
                 count: int = 0) -> None:
        self.alpha = alpha
        self.raw = raw
        self.count = count

    @property
    def value(self) -> float:
        return 0.0 if self.raw is None else self.raw

    @property
    def initialized(self) -> bool:
        return self.raw is not None

    def update(self, x: float) -> None:
        if self.raw is None:
            self.raw = float(x)
        else:
            self.raw = self.alpha * float(x) + (1.0 - self.alpha) * self.raw
        self.count += 1

    def decay(self, factor: float, periods: float = 1.0) -> None:
        if self.raw is not None and periods > 0:
            self.raw *= factor ** periods

    def record(self) -> dict:
        """The ``{alpha, value, count}`` dict the JSON-era journal and
        snapshot wrote per stream."""
        return {"alpha": self.alpha, "value": self.raw, "count": self.count}


def streams(example) -> dict[str, RefEMA]:
    """An example's three streams as they lie in its table row."""
    row = example.journal_row()
    flags = int(row[-1])
    out = {}
    for bit, stream in enumerate(EMA_STREAMS):
        alpha, value, count = row[5 + 3 * bit:8 + 3 * bit]
        out[stream] = RefEMA(float(alpha),
                             float(value) if flags >> bit & 1 else None,
                             int(count))
    return out


def write_streams(example, states: dict[str, RefEMA]) -> None:
    """Write the given streams' states into the example's table row (an
    uninitialized stream's value slot gets 0.0); other streams and every
    other field stay as they are."""
    row = list(example.journal_row())
    for bit, stream in enumerate(EMA_STREAMS):
        ema = states.get(stream)
        if ema is None:
            continue
        row[5 + 3 * bit:8 + 3 * bit] = (ema.alpha, ema.value, ema.count)
        row[-1] = row[-1] & ~(1 << bit) | ema.initialized << bit
    d = example.__dict__
    d["_table"].write_journal_row(d["_row"], row)


def update(example, **observations: float) -> None:
    """Feed some of an example's streams one observation each, by the
    reference arithmetic (``update(ex, gain_ema=0.9)``)."""
    states = streams(example)
    for stream, x in observations.items():
        states[stream].update(x)
    write_streams(example, {name: states[name] for name in observations})
