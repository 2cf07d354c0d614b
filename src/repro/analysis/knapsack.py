"""0/1 knapsack retention for example-cache eviction (paper section 4.3).

The Example Manager treats each cached example as an item whose *weight* is
its plaintext size and whose *value* is the efficiency gain it enabled
(successful offloadings, EMA-decayed).  Retention under a byte budget is then
a classic 0/1 knapsack, solved greedily by value density with the standard
"best single item" fix-up, which gives the 1/2-approximation bound.

* :func:`knapsack_victims` — the one kernel, run inline on every
  over-budget admission (section 5: the solver must not interfere with
  online serving), so it has no per-item Python step and, when the pool is
  one item over budget, ranks nothing: :func:`_one_victim` proves which
  single item the greedy rejects, on the table's own columns, before any
  check runs;
* ``tests/knapsack_reference.py`` — the per-item greedy over
  ``KnapsackItem`` objects, ``_solve_greedy``, that the kernel is tested
  against item for item.

The kernel ranks every item, as the reference does, whenever the proof
does not hold: a pool within budget, a zero-weight item, a last-ranked
item lighter than the excess (more than one item must go), or a
last-ranked item that holds the pool's unique maximum value (the one case
the best-single fix-up could fire).
"""

from __future__ import annotations

import numpy as np


def knapsack_victims(weights: np.ndarray, values: np.ndarray,
                     capacity: int, tie_rank: np.ndarray) -> list[int]:
    """The positions to evict under the weight budget, in ascending
    ``tie_rank`` (zero-weight items always stay).

    ``weights``/``values``/``tie_rank`` are parallel arrays, e.g. an
    :class:`repro.core.table.ExampleTable`'s int64 weight, float64 value
    and insertion-rank columns in table *row* order.  The kept set is the
    per-item greedy's over the items in ascending ``tie_rank`` (distinct
    integers, one per item), item for item.  A one-victim proof runs
    before any check: it gives up on a NaN or negative value, which the
    checks then refuse.
    """
    if capacity > 0 and weights.size and np.minimum.reduce(weights) > 0:
        victim = _one_victim(weights, values, capacity, tie_rank)
        if victim is not None:
            return [victim]
    weights, values, tie_rank = _checked(weights, values, capacity, tie_rank)
    keep = weights == 0
    weighted = np.flatnonzero(~keep)
    if weighted.size and capacity > 0:
        keep[weighted] = _greedy_mask(weights[weighted], values[weighted],
                                      capacity, tie_rank[weighted])
    rows = np.flatnonzero(~keep)
    return rows[np.argsort(tie_rank[rows])].tolist()


def _checked(weights, values, capacity: int, tie_rank):
    """The kernel's inputs as arrays, or a ``ValueError`` naming what is
    wrong with them."""
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    weights = np.asarray(weights, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    tie_rank = np.asarray(tie_rank)
    if weights.ndim != 1 or values.shape != weights.shape \
            or tie_rank.shape != weights.shape:
        raise ValueError("weights/values/tie_rank must be parallel 1-D arrays")
    # NaN propagates through min() and fails every comparison.
    if weights.min(initial=0) < 0 or not values.min(initial=0.0) >= 0:
        raise ValueError("negative knapsack weight, or negative or NaN value")
    return weights, values, tie_rank


def _rank(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The greedy ranking as a permutation: density desc, then value desc,
    ties keeping the order given — ``sorted(..., reverse=True)`` in the
    reference's ``_solve_greedy``.

    Complex numbers sort lexicographically, so this is one stable argsort,
    at half ``np.lexsort``'s cost.
    """
    rank_key = np.empty(w.size, dtype=np.complex128)
    np.divide(v, w, out=rank_key.real)
    rank_key.imag = v
    return np.argsort(np.negative(rank_key, out=rank_key), kind="stable")


def _one_victim(w: np.ndarray, v: np.ndarray, capacity: int,
                tie_rank: np.ndarray) -> int | None:
    """The one item the greedy rejects, by position, when that is provable
    without ranking the pool — or ``None`` (so too for a NaN or negative
    value, which the checked kernel refuses).

    The candidate is the last-ranked item: lowest density, then lowest
    value, then the highest tie rank — the end of ``sorted(...,
    reverse=True)``'s stable order.  If it weighs at least the excess, the
    items ranked before it weigh no more than ``capacity``, so the item loop
    takes each of them and the candidate misfits.  If some other item is
    worth at least as much, that item is in the greedy total — a sequential
    float sum of non-negative values, never below one of its addends — so
    the best-single fix-up cannot fire.
    """
    excess = int(np.add.reduce(w)) - capacity
    if excess <= 0:
        return None
    density = v / w
    low = np.minimum.reduce(density)
    if not low >= 0:        # NaN fails too
        return None
    lowest = (density == low).nonzero()[0]
    victim = int(lowest[0])
    if lowest.size > 1:
        lowest = lowest[v[lowest] == np.minimum.reduce(v[lowest])]
        victim = int(lowest[tie_rank[lowest].argmax()])
    if w[victim] < excess or np.add.reduce(v >= v[victim]) < 2:
        return None
    return victim


def _greedy_mask(w: np.ndarray, v: np.ndarray, capacity: int,
                 tie_rank: np.ndarray) -> np.ndarray:
    """The reference's ``_solve_greedy`` (density ranking, item loop,
    best-single fix-up) over positive-weight arrays, as a keep-mask.

    Between two misfits the item loop takes a contiguous run of the
    ranking, so it is replayed run by run: ``limit`` is ``capacity`` plus
    the weight of every misfit skipped so far, which makes "the run still
    fits" a ``searchsorted`` of ``limit`` in the ranked cumulative weights.
    """
    members = np.argsort(tie_rank, kind="stable")
    w, v = w[members], v[members]
    order = _rank(w, v)
    ranked_w = w[order]
    cum_w = np.cumsum(ranked_w)
    # need[p]: the smallest limit at which anything ranked p or later still
    # fits — the weight ranked before p plus the lightest item from p on.
    need = cum_w - ranked_w + np.minimum.accumulate(ranked_w[::-1])[::-1]
    m = order.size
    taken = np.zeros(m, dtype=bool)
    pos, limit = 0, capacity
    while pos < m and limit >= need[pos]:
        misfit = int(np.searchsorted(cum_w, limit, side="right"))
        taken[pos:misfit] = True
        if misfit < m:
            limit += int(ranked_w[misfit])
        pos = misfit + 1

    chosen = np.empty(m, dtype=bool)
    chosen[members[order]] = taken
    # Sequential accumulate, not a pairwise np.sum: the fix-up must compare
    # the very float the item loop's running total reaches (+0.0 is exact).
    greedy_value = np.cumsum(np.where(taken, v[order], 0.0))[-1]
    best = int(np.argmax(np.where(w <= capacity, v, -1.0)))
    if w[best] <= capacity and v[best] > greedy_value:
        chosen[:] = False
        chosen[members[best]] = True
    return chosen
