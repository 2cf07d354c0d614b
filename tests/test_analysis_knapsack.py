"""Unit and property tests for the cache-eviction knapsack solvers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tests.knapsack_reference import KnapsackItem, solve_knapsack


def brute_force_best(items, capacity):
    """Oracle: exhaustively maximize value under the weight budget."""
    best_value = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            weight = sum(it.weight for it in combo)
            if weight <= capacity:
                best_value = max(best_value, sum(it.value for it in combo))
    return best_value


def total_value(items, keys):
    return sum(it.value for it in items if it.key in keys)


def total_weight(items, keys):
    return sum(it.weight for it in items if it.key in keys)


class TestKnapsackItem:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            KnapsackItem(key="a", weight=-1, value=1.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            KnapsackItem(key="a", weight=1, value=-0.5)


class TestSolveKnapsack:
    def test_empty_items(self):
        assert solve_knapsack([], 10) == set()

    def test_zero_capacity_keeps_only_free_items(self):
        items = [KnapsackItem("free", 0, 1.0), KnapsackItem("heavy", 5, 10.0)]
        assert solve_knapsack(items, 0) == {"free"}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_knapsack([], -1)

    def test_duplicate_keys_rejected(self):
        items = [KnapsackItem("a", 1, 1.0), KnapsackItem("a", 2, 2.0)]
        with pytest.raises(ValueError):
            solve_knapsack(items, 10)

    def test_all_fit(self):
        items = [KnapsackItem(i, 1, float(i)) for i in range(5)]
        assert solve_knapsack(items, 5) == {0, 1, 2, 3, 4}

    def test_dp_optimal_on_classic_instance(self):
        # Greedy-by-density fails here; DP must not.
        items = [
            KnapsackItem("a", 10, 60.0),   # density 6.0
            KnapsackItem("b", 20, 100.0),  # density 5.0
            KnapsackItem("c", 30, 120.0),  # density 4.0
        ]
        keep = solve_knapsack(items, 50, exact=True)
        assert total_value(items, keep) == pytest.approx(220.0)  # b + c

    def test_greedy_single_item_fixup(self):
        # One huge-value item beats many small ones the greedy packs first.
        items = [KnapsackItem("big", 10, 100.0)] + [
            KnapsackItem(f"small-{i}", 1, 2.0) for i in range(9)
        ]
        keep = solve_knapsack(items, 10, exact=False)
        assert total_value(items, keep) >= 100.0

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=12),
                      st.floats(min_value=0, max_value=50)),
            min_size=0, max_size=9,
        ),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_brute_force(self, raw, capacity):
        items = [KnapsackItem(i, w, v) for i, (w, v) in enumerate(raw)]
        keep = solve_knapsack(items, capacity, exact=True)
        weighted = [it for it in items if it.weight > 0]
        assert total_weight(weighted, keep) <= capacity
        assert total_value(weighted, keep) == pytest.approx(
            brute_force_best(weighted, capacity)
        )

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=12),
                      st.floats(min_value=0, max_value=50)),
            min_size=1, max_size=9,
        ),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_respects_capacity_and_half_approximation(self, raw, capacity):
        items = [KnapsackItem(i, w, v) for i, (w, v) in enumerate(raw)]
        keep = solve_knapsack(items, capacity, exact=False)
        assert total_weight(items, keep) <= capacity
        optimal = brute_force_best(items, capacity)
        assert total_value(items, keep) >= 0.5 * optimal - 1e-9

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_zero_weight_items_always_kept(self, capacity):
        items = [KnapsackItem("free1", 0, 0.0), KnapsackItem("free2", 0, 9.0),
                 KnapsackItem("w", 10, 1.0)]
        keep = solve_knapsack(items, capacity)
        assert {"free1", "free2"} <= keep
