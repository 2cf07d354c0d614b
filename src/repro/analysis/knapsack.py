"""0/1 knapsack solvers for example-cache eviction (paper section 4.3).

The Example Manager treats each cached example as an item whose *weight* is
its plaintext size and whose *value* is the efficiency gain it enabled
(successful offloadings, EMA-decayed).  Retention under a byte budget is then
a classic 0/1 knapsack, solved exactly (dynamic programming, for small
pools) or greedily by value density with the standard "best single item"
fix-up, which gives the 1/2-approximation bound.

* :func:`knapsack_keep_mask` — the array kernel the manager runs inline on
  every over-budget admission (section 5: the solver must not interfere
  with online serving), so it has no per-item Python step and, when the
  pool is only a little over budget, ranks only the low-density tail an
  item could be rejected from (:func:`_density_tail`) — the same answer
  as ranking the pool, for a partition instead of a sort;
* ``tests/knapsack_reference.py`` — the same two solvers over
  ``KnapsackItem`` objects; the greedy one, ``_solve_greedy``, is the
  per-item reference the kernel is tested against.

The kernel ranks every item, as the reference does, whenever the tail
cannot be proven: the exact-DP branch, a pool within budget, an excess
the widest tail tried does not cover (widths grow fourfold from an
estimate and stop at a quarter of the pool), or a pool whose most
valuable item sits in the tail with no equal above it (the one case the
best-single fix-up could fire).
"""

from __future__ import annotations

import numpy as np


def knapsack_keep_mask(weights: np.ndarray, values: np.ndarray,
                       capacity: int, exact: bool = False,
                       tie_rank: np.ndarray | None = None) -> np.ndarray:
    """The items to keep under the weight budget, as a boolean mask by
    position (``exact`` selects the DP, optimal in O(n * capacity);
    otherwise the greedy density heuristic; zero-weight items always stay).

    ``weights``/``values`` are parallel arrays, e.g. live column views of an
    :class:`repro.core.table.ExampleTable`.  The kept set is the object
    solver's, item for item, on both paths.  Items that tie are considered
    in position order — or, given ``tie_rank`` (distinct integers, one per
    item), in ascending ``tie_rank``, so columns can be passed in table
    *row* order with the insertion rank alongside instead of being
    gathered into insertion order first.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    weights = np.asarray(weights, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if weights.ndim != 1 or values.shape != weights.shape:
        raise ValueError("weights/values must be parallel 1-D arrays")
    lightest = weights.min(initial=1)
    if lightest < 0 or values.min(initial=0.0) < 0:
        raise ValueError("negative knapsack weight or value")
    if tie_rank is not None:
        tie_rank = np.asarray(tie_rank)
        if tie_rank.shape != weights.shape:
            raise ValueError("tie_rank must be parallel to weights")

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


def _solve(w: np.ndarray, v: np.ndarray, capacity: int, exact: bool,
           tie_rank: np.ndarray | None) -> np.ndarray:
    """Keep-mask over positive-weight items from the selected solver."""
    if not exact:
        return _greedy_mask(w, v, capacity, tie_rank)
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


def _density_tail(w: np.ndarray, v: np.ndarray,
                  capacity: int) -> tuple[np.ndarray, int] | None:
    """The low-density end of the ranking that holds everything the greedy
    can reject, as ``(positions, weight of the rest)`` — or ``None`` when
    the whole pool has to be ranked.

    Every item whose density is at most some cut forms an exact suffix of
    the ranking (density is its first key and all ties at the cut are in).
    If the items *above* the cut weigh no more than ``capacity``, the item
    loop takes each of them — its running weight never exceeds theirs —
    and arrives at the suffix with ``used`` equal to their weight, so only
    the suffix needs ranking.  The best-single fix-up cannot then fire if
    an item of maximal fitting value lies above the cut: it is taken, and
    a sequential float sum of non-negative values is never below one of
    its addends, so no single value exceeds the greedy total.

    The suffix is found with ``np.partition``, no sort.  Its first width
    is four times the item count the excess is worth at the pool's mean
    weight; while the suffix is too light to cover the excess it widens
    fourfold, and past a quarter of the pool (a deep eviction, where the
    partitions would cost what the sort does) the answer is ``None``.
    """
    n = w.size
    total = int(w.sum())
    excess = total - capacity
    if excess <= 0:
        return None
    density = v / w
    width = 4 * (excess * n // total + 1)
    while width <= n // 4:
        cut = np.partition(density, width - 1)[width - 1]
        tail = np.flatnonzero(density <= cut)
        tail_w = w[tail]
        head_weight = total - int(tail_w.sum())
        if head_weight > capacity:
            width *= 4
            continue
        best_in_tail = v[tail].max()
        if best_in_tail >= v.max():
            # The pool's best value is in the tail: the proof needs its
            # equal above the cut.
            head_v = v.copy()
            head_v[tail] = -1.0
            if head_v.max() < best_in_tail:
                return None
        return tail, head_weight
    return None


def _greedy_mask(w: np.ndarray, v: np.ndarray, capacity: int,
                 tie_rank: np.ndarray | None = None) -> np.ndarray:
    """The reference's ``_solve_greedy`` (density ranking, item loop,
    best-single fix-up) over positive-weight arrays, as a keep-mask.

    Only the items :func:`_density_tail` cannot prove taken are ranked
    (``members``, in tie order; everything when it proves nothing).
    Between two misfits
    the item loop takes a contiguous run of the ranking, so it is replayed
    run by run: ``limit`` is the capacity left to the members plus the
    weight of every misfit skipped so far, which makes "the run still
    fits" a ``searchsorted`` of ``limit`` in the ranked cumulative weights.
    """
    n = w.size
    tail = _density_tail(w, v, capacity)
    members, head_weight = (np.arange(n), 0) if tail is None else tail
    if tie_rank is not None:
        members = members[np.argsort(tie_rank[members], kind="stable")]
    w, v = w[members], v[members]
    order = _rank(w, v)
    ranked_w = w[order]
    cum_w = np.cumsum(ranked_w)
    # need[p]: the smallest limit at which anything ranked p or later still
    # fits — the weight ranked before p plus the lightest item from p on.
    need = cum_w - ranked_w + np.minimum.accumulate(ranked_w[::-1])[::-1]
    m = order.size
    taken = np.zeros(m, dtype=bool)
    pos, limit = 0, capacity - head_weight
    while pos < m and limit >= need[pos]:
        misfit = int(np.searchsorted(cum_w, limit, side="right"))
        taken[pos:misfit] = True
        if misfit < m:
            limit += int(ranked_w[misfit])
        pos = misfit + 1

    chosen = np.full(n, tail is not None)   # above the cut: all taken
    chosen[members[order]] = taken
    if tail is None:
        # Sequential accumulate, not a pairwise np.sum: the fix-up must
        # compare the very float the item loop's running total reaches
        # (+0.0 is exact).
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
