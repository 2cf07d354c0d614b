"""0/1 knapsack solvers for example-cache eviction (paper section 4.3).

The Example Manager treats each cached example as an item whose *weight* is
its plaintext size and whose *value* is the efficiency gain it enabled
(successful offloadings, EMA-decayed).  Retention under a byte budget is then
a classic 0/1 knapsack, solved exactly (dynamic programming, for small
pools under small budgets) or greedily by value density with the standard
"best single item" fix-up, which gives the 1/2-approximation bound.

* :func:`knapsack_keep_mask` — the array kernel the manager runs inline on
  every over-budget admission (section 5: the solver must not interfere
  with online serving), so it has no per-item Python step and, when the
  pool is one item over budget, ranks nothing: :func:`_one_victim` proves
  which single item the greedy rejects;
* :func:`knapsack_victims` — what the manager calls: the kernel's dropped
  positions in tie order, with the one-victim proof tried first on the
  table's own columns and their checks run only when the proof fails;
* ``tests/knapsack_reference.py`` — the same two solvers over
  ``KnapsackItem`` objects; the greedy one, ``_solve_greedy``, is the
  per-item reference the kernel is tested against.

The kernel ranks every item, as the reference does, whenever the proof
does not hold: the exact-DP branch, a pool within budget, a last-ranked
item lighter than the excess (more than one item must go), or a
last-ranked item that holds the pool's unique maximum value (the one case
the best-single fix-up could fire).
"""

from __future__ import annotations

import numpy as np

#: The most memory the exact DP may take, in bytes.  Its ``take`` table
#: holds one bool per item per byte of budget, beside three float64 rows
#: (``best`` and two temporaries): ``(n + 24) * (capacity + 1)`` bytes, and
#: time in proportion.  Above this the kernel runs the greedy instead.  On
#: a 2-vCPU Xeon, 64 items under a 160 KiB budget (13.8 MiB) take 21 ms; 9
#: items under a 16 MiB budget (528 MiB) take 977 ms, where greedy takes
#: 0.3 ms.
DP_MAX_BYTES = 16 << 20


def knapsack_keep_mask(weights: np.ndarray, values: np.ndarray,
                       capacity: int, exact: bool = False,
                       tie_rank: np.ndarray | None = None) -> np.ndarray:
    """The items to keep under the weight budget, as a boolean mask by
    position (``exact`` selects the DP, optimal in O(n * capacity), unless
    its arrays would pass :data:`DP_MAX_BYTES`; otherwise the greedy
    density heuristic; zero-weight items always stay).

    ``weights``/``values`` are parallel arrays, e.g. live column views of an
    :class:`repro.core.table.ExampleTable`.  The kept set is the object
    solver's, item for item, on both paths.  Items that tie are considered
    in position order — or, given ``tie_rank`` (distinct integers, one per
    item), in ascending ``tie_rank``, so columns can be passed in table
    *row* order with the insertion rank alongside instead of being
    gathered into insertion order first.
    """
    weights, values, tie_rank, lightest = _checked(weights, values,
                                                   capacity, tie_rank)
    if lightest > 0 and capacity > 0 and weights.size:
        # The usual pool: nothing is free, so nothing to set aside.
        return _solve(weights, values, capacity, exact, tie_rank)
    keep = weights == 0
    weighted = np.flatnonzero(~keep)
    if weighted.size and capacity > 0:
        keep[weighted] = _solve(
            weights[weighted], values[weighted], capacity, exact,
            None if tie_rank is None else tie_rank[weighted])
    return keep


def knapsack_victims(weights: np.ndarray, values: np.ndarray,
                     capacity: int, exact: bool,
                     tie_rank: np.ndarray) -> list[int]:
    """The positions :func:`knapsack_keep_mask` drops, in ascending
    ``tie_rank``, for an :class:`repro.core.table.ExampleTable`'s own int64
    weight, float64 value and rank columns.  A one-victim proof runs before
    any check: it gives up on a NaN or negative value, which the checks
    then refuse."""
    if capacity > 0 and weights.size and _greedy(weights.size, capacity,
                                                 exact) \
            and np.minimum.reduce(weights) > 0:
        victim = _one_victim(weights, values, capacity, tie_rank)
        if victim is not None:
            return [victim]
        _checked(weights, values, capacity, tie_rank)
        keep = _greedy_mask(weights, values, capacity, tie_rank)
    else:
        keep = knapsack_keep_mask(weights, values, capacity, exact, tie_rank)
    rows = np.flatnonzero(~keep)
    return rows[np.argsort(tie_rank[rows])].tolist()


def _checked(weights, values, capacity: int, tie_rank):
    """The kernel's inputs as arrays, and the lightest weight (1 for none),
    or a ``ValueError`` naming what is wrong with them."""
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    weights = np.asarray(weights, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if weights.ndim != 1 or values.shape != weights.shape:
        raise ValueError("weights/values must be parallel 1-D arrays")
    lightest = weights.min(initial=1)
    # NaN propagates through min() and fails every comparison.
    if lightest < 0 or not values.min(initial=0.0) >= 0:
        raise ValueError("negative knapsack weight, or negative or NaN value")
    if tie_rank is not None:
        tie_rank = np.asarray(tie_rank)
        if tie_rank.shape != weights.shape:
            raise ValueError("tie_rank must be parallel to weights")
    return weights, values, tie_rank, lightest


def _greedy(n: int, capacity: int, exact: bool) -> bool:
    """The exact DP was not asked for, or would pass DP_MAX_BYTES."""
    return not exact or (n + 24) * (capacity + 1) > DP_MAX_BYTES


def _solve(w: np.ndarray, v: np.ndarray, capacity: int, exact: bool,
           tie_rank: np.ndarray | None) -> np.ndarray:
    """Keep-mask over positive-weight items from the selected solver."""
    if _greedy(w.size, capacity, exact):
        victim = _one_victim(w, v, capacity, tie_rank)
        if victim is None:
            return _greedy_mask(w, v, capacity, tie_rank)
        keep = np.ones(w.size, dtype=bool)
        keep[victim] = False
        return keep
    if tie_rank is None:
        return _solve_dp(w, v, capacity)
    # The DP keeps the earlier of two interchangeable items: run it in
    # tie order and scatter the answer back to positions.
    order = np.argsort(tie_rank, kind="stable")
    chosen = np.empty(w.size, dtype=bool)
    chosen[order] = _solve_dp(w[order], v[order], capacity)
    return chosen


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
                tie_rank: np.ndarray | None) -> int | None:
    """The one item the greedy rejects, by position, when that is provable
    without ranking the pool — or ``None`` (so too for a NaN or negative
    value, which the checked kernel refuses).

    The candidate is the last-ranked item: lowest density, then lowest
    value, then the highest tie rank (highest position without one) —
    the end of ``sorted(..., reverse=True)``'s stable order.  If it weighs
    at least the excess, the items ranked before it weigh no more than
    ``capacity``, so the item loop takes each of them and the candidate
    misfits.  If some other item is worth at least as much, that item is
    in the greedy total — a sequential float sum of non-negative values,
    never below one of its addends — so the best-single fix-up cannot fire.
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
        victim = int(lowest[-1] if tie_rank is None
                     else lowest[tie_rank[lowest].argmax()])
    if w[victim] < excess or np.add.reduce(v >= v[victim]) < 2:
        return None
    return victim


def _greedy_mask(w: np.ndarray, v: np.ndarray, capacity: int,
                 tie_rank: np.ndarray | None = None) -> np.ndarray:
    """The reference's ``_solve_greedy`` (density ranking, item loop,
    best-single fix-up) over positive-weight arrays, as a keep-mask.

    Between two misfits the item loop takes a contiguous run of the
    ranking, so it is replayed run by run: ``limit`` is ``capacity`` plus
    the weight of every misfit skipped so far, which makes "the run still
    fits" a ``searchsorted`` of ``limit`` in the ranked cumulative weights.
    """
    members = (np.arange(w.size) if tie_rank is None
               else np.argsort(tie_rank, kind="stable"))
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


def _solve_dp(w: np.ndarray, v: np.ndarray, capacity: int) -> np.ndarray:
    """Exact 0/1 knapsack over positive-weight arrays, as a keep-mask.

    Dynamic programming with parent pointers, one array update per item
    (it reads only the previous item's ``best``: each item used once).
    """
    n = w.size
    # best[c] = max value using a prefix of items at total weight <= c
    best = np.zeros(capacity + 1)
    take = np.zeros((n, capacity + 1), dtype=bool)
    for i in range(n):
        wi = int(w[i])
        if wi > capacity:
            continue
        candidate = best[:-wi] + v[i]
        take[i, wi:] = candidate > best[wi:]
        np.maximum(best[wi:], candidate, out=best[wi:])

    chosen = np.zeros(n, dtype=bool)
    c = capacity
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            chosen[i] = True
            c -= int(w[i])
    return chosen
