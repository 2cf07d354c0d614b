"""The per-item knapsack solvers, kept verbatim as the array kernel's oracle.

:func:`repro.analysis.knapsack.knapsack_keep_mask` is what the Example
Manager runs; these are the ``KnapsackItem`` object solvers it was derived
from, with the bodies they had in ``src/repro/analysis/knapsack.py`` until
only tests and ``benchmarks/perf_harness.py`` still called them.  The
greedy one (:func:`_solve_greedy`: density ranking by ``sorted``, an item
loop, the best-single fix-up) is the reference the kernel must match item
for item (``tests/test_core_table_properties.py``,
``tests/test_retention_tail.py``); the exact path delegates to the
kernel's DP and is itself pinned to a list-of-lists DP there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.knapsack import knapsack_keep_mask


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
