"""0/1 knapsack solvers for example-cache eviction (paper section 4.3).

The Example Manager treats each cached example as an item whose *weight* is
its plaintext size and whose *value* is the efficiency gain it enabled
(successful offloadings, EMA-decayed).  Retention under a byte budget is then
a classic 0/1 knapsack, solved exactly (dynamic programming, for small
pools) or greedily by value density with the standard "best single item"
fix-up, which gives the 1/2-approximation bound.

* :func:`knapsack_keep_mask` — the array kernel the manager runs inline on
  every over-budget admission (section 5: the solver must not interfere
  with online serving), so it has no per-item Python step;
* :func:`solve_knapsack` — the same two solvers over ``KnapsackItem``
  objects; the greedy one is the per-item reference the kernel is tested
  against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KnapsackItem:
    """One candidate for retention: ``key`` identifies the cache entry."""

    key: object
    weight: int
    value: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative weight for {self.key}: {self.weight}")
        if self.value < 0:
            raise ValueError(f"negative value for {self.key}: {self.value}")


def solve_knapsack(
    items: list[KnapsackItem], capacity: int, exact: bool = False
) -> set[object]:
    """Return the set of item keys to *keep* under the weight budget.

    ``exact`` selects the DP solver (optimal, O(n * capacity)); otherwise the
    greedy density heuristic runs in O(n log n).  Zero-weight items are always
    kept — they consume no budget.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    keys = [item.key for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError("knapsack items must have unique keys")

    if exact:
        mask = knapsack_keep_mask([item.weight for item in items],
                                  [item.value for item in items],
                                  capacity, exact=True)
        return {key for key, kept in zip(keys, mask) if kept}
    free = {item.key for item in items if item.weight == 0}
    weighted = [item for item in items if item.weight > 0]
    if not weighted or capacity == 0:
        return free
    return free | _solve_greedy(weighted, capacity)


def knapsack_keep_mask(weights: np.ndarray, values: np.ndarray,
                       capacity: int, exact: bool = False) -> np.ndarray:
    """Array-native :func:`solve_knapsack`: a boolean keep-mask by position.

    ``weights``/``values`` are parallel arrays, e.g. fancy-indexed straight
    out of an :class:`repro.core.table.ExampleTable`.  The kept set is the
    object solver's, item for item, on both paths.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    weights = np.asarray(weights, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if weights.ndim != 1 or values.shape != weights.shape:
        raise ValueError("weights/values must be parallel 1-D arrays")
    if (weights < 0).any() or (values < 0).any():
        raise ValueError("negative knapsack weight or value")

    keep = weights == 0
    weighted = np.flatnonzero(~keep)
    if weighted.size == 0 or capacity == 0:
        return keep
    solve = _solve_dp if exact else _greedy_mask
    chosen = solve(weights[weighted], values[weighted], capacity)
    keep[weighted[chosen]] = True
    return keep


def solve_knapsack_arrays(keys: list, weights: np.ndarray, values: np.ndarray,
                          capacity: int, exact: bool = False) -> set[object]:
    """:func:`knapsack_keep_mask` with the kept positions mapped to keys."""
    if len(set(keys)) != len(keys) or len(keys) != len(weights):
        raise ValueError("keys must be unique, one per weight")
    mask = knapsack_keep_mask(weights, values, capacity, exact=exact)
    return {keys[i] for i in np.flatnonzero(mask)}


def _greedy_mask(w: np.ndarray, v: np.ndarray, capacity: int) -> np.ndarray:
    """:func:`_solve_greedy` over positive-weight arrays, as a keep-mask.

    Between two misfits the item loop takes a contiguous run of the
    ranking, so it is replayed run by run: ``limit`` is the capacity plus
    the weight of every misfit skipped so far, which makes "the run still
    fits" a ``searchsorted`` of ``limit`` in the ranked cumulative weights.
    """
    # Complex numbers sort lexicographically, so one stable argsort ranks by
    # density desc, then value desc, ties keeping original order — the
    # mirror of sorted(..., reverse=True) below, at half np.lexsort's cost.
    rank_key = np.empty(w.size, dtype=np.complex128)
    np.divide(v, w, out=rank_key.real)
    rank_key.imag = v
    order = np.argsort(np.negative(rank_key, out=rank_key), kind="stable")
    ranked_w = w[order]
    cum_w = np.cumsum(ranked_w)
    # need[p]: the smallest limit at which anything ranked p or later still
    # fits — the weight ranked before p plus the lightest item from p on.
    need = cum_w - ranked_w + np.minimum.accumulate(ranked_w[::-1])[::-1]
    n = order.size
    taken = np.zeros(n, dtype=bool)
    pos, limit = 0, capacity
    while pos < n and limit >= need[pos]:
        misfit = int(np.searchsorted(cum_w, limit, side="right"))
        taken[pos:misfit] = True
        if misfit < n:
            limit += int(ranked_w[misfit])
        pos = misfit + 1

    # Sequential accumulate, not a pairwise np.sum: the fix-up must compare
    # the very float the item loop's running total reaches (+0.0 is exact).
    greedy_value = np.cumsum(np.where(taken, v[order], 0.0))[-1]
    best = int(np.argmax(np.where(w <= capacity, v, -1.0)))
    chosen = np.zeros(n, dtype=bool)
    if w[best] <= capacity and v[best] > greedy_value:
        chosen[best] = True
    else:
        chosen[order] = taken
    return chosen


def _solve_greedy(items: list[KnapsackItem], capacity: int) -> set[object]:
    """Greedy by value density, compared against the best single item."""
    ranked = sorted(items, key=lambda it: (it.value / it.weight, it.value), reverse=True)
    chosen: set[object] = set()
    used = 0
    greedy_value = 0.0
    for item in ranked:
        if used + item.weight <= capacity:
            chosen.add(item.key)
            used += item.weight
            greedy_value += item.value

    # Classic fix-up: a single high-value item can beat the greedy prefix,
    # which restores the 1/2-approximation guarantee.
    fitting = [it for it in items if it.weight <= capacity]
    if fitting:
        best_single = max(fitting, key=lambda it: it.value)
        if best_single.value > greedy_value:
            return {best_single.key}
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
