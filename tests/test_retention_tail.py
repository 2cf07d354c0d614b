"""The tail-only retention pass against everything it must equal.

An over-budget admission ranks only a low-density suffix of the pool
(:func:`repro.analysis.knapsack._density_tail`) and is handed raw table
columns in *row* order with the insertion rank as tie-break.  Neither may
change a single decision, so the properties here compare, item for item:

* the tie-ranked, row-order kernel against the per-item ``_solve_greedy``
  loop and against the same kernel fed insertion-order arrays — on pools
  built to tie (weights and values from small sets, the 1e-3 value floor),
  with the best-single fix-up firing, zero weights, and excesses from one
  byte to deeper than the first tail;
* :meth:`ExampleManager.enforce_capacity` on tables whose rows were
  scrambled by swap-deletes and an ``overwrite``, or restored through
  ``ExampleTable.adopt_columns``, against the per-object reference;
* a journaled at-capacity serving run against the same run with the
  shortcut disabled — byte-identical ``wal.bin`` and index state.

Deterministic cases beside them pin *when* the kernel ranks everything,
so the properties cannot pass by never taking the shortcut.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.analysis import knapsack
from repro.analysis.knapsack import knapsack_keep_mask
from repro.core.cache import ExampleCache
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.manager import ExampleManager
from repro.core.replay import ReplayEngine
from repro.core.service import ICCacheService
from repro.core.table import INSERTION_RANK
from repro.llm.zoo import get_model
from repro.persistence.snapshot import _encode
from repro.persistence.wal import Checkpointer, WriteAheadLog
from repro.utils.clock import SimClock
from repro.workload.datasets import SyntheticDataset
from tests.knapsack_reference import KnapsackItem, solve_knapsack
from tests.strategies import DETERMINISM, QUICK
from tests.test_core_table_properties import (
    RefExample,
    _apply,
    _assert_state_matches,
    _reference_keep,
    _restored,
)


# -- the kernel -------------------------------------------------------------

def _values_for(family: str, weights: list[int], picks: list[int]):
    """Item values that tie in density and in value, one family per pool."""
    if family == "tied-density":      # density in {0.5, 1.0, 1.5}
        return [w * (0.5 + 0.5 * (p % 3)) for w, p in zip(weights, picks)]
    if family == "floor":             # the manager's gain * (1 + n) + 1e-3
        return [(0.0, 0.3, 0.7)[p % 3] * (1 + p // 3 % 3) * (p % 2) + 1e-3
                for p in picks]
    if family == "light-is-cheap":    # density rises with weight: the
        return [w * w * 0.25 + 1e-3   # low-density end is the light end
                for w in weights]
    return [p / 10.0 for p in picks]  # "spread": inexact tenths


@st.composite
def _tail_cases(draw):
    n = draw(st.integers(16, 72))
    weights = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 40]),
                            min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(0, 17), min_size=n, max_size=n))
    family = draw(st.sampled_from(
        ["tied-density", "floor", "light-is-cheap", "spread"]))
    values = _values_for(family, weights, picks)
    if draw(st.booleans()):
        # One item worth about the whole crowd that barely fits alone: the
        # best-single fix-up may fire, wherever the item ranks.
        at = draw(st.integers(0, n - 1))
        weights[at] = max(1, sum(weights) * draw(st.integers(2, 9)) // 10)
        values[at] = sum(values) * draw(st.integers(5, 15)) / 10.0
    for at in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        weights[at] = 0               # free items: kept, never ranked
    total = sum(weights)
    excess = draw(st.one_of(
        st.integers(1, 8),                        # one example over
        st.integers(1, max(1, total // 8)),       # past the first tail
        st.integers(1, max(1, total)),            # deep: rank everything
    ))
    rows = draw(st.permutations(range(n)))        # row r holds item rows[r]
    return weights, values, max(0, total - excess), rows


def _kept(mask) -> set[int]:
    return set(np.flatnonzero(mask).tolist())


@settings(**QUICK)
@given(case=_tail_cases())
# every value on the floor, every weight equal: the cut ties with the whole
# pool, and the only maximal value there is sits in the tail as well
@example(case=([3] * 20, [1e-3] * 20, 58, list(range(19, -1, -1))))
# one byte over, and the item the scan rejects — lowest density, last in
# the tail — is worth more than all it kept: the fix-up keeps it alone
@example(case=([1] * 19 + [60], [2.0 - 0.01 * i for i in range(19)] + [45.0],
               78, list(range(0, 20, 2)) + list(range(1, 20, 2))))
def test_row_order_kernel_matches_item_loop_and_insertion_order(case):
    """Fed rows in any order with their insertion rank, the kernel keeps
    exactly what the per-item loop keeps over the insertion-order items —
    and what it keeps itself when handed insertion-order arrays."""
    weights, values, capacity, rows = case
    items = [KnapsackItem(key=i, weight=w, value=v)
             for i, (w, v) in enumerate(zip(weights, values))]
    expected = solve_knapsack(items, capacity)           # _solve_greedy

    w = np.array(weights, dtype=np.int64)
    v = np.array(values, dtype=np.float64)
    positive = w > 0
    tail = (knapsack._density_tail(w[positive], v[positive], capacity)
            if capacity else None)
    event("ranked everything" if tail is None else "ranked a tail")
    assert _kept(knapsack_keep_mask(w, v, capacity)) == expected

    rows = np.array(rows)
    # Gapped, offset ranks: only their order may matter.
    by_row = knapsack_keep_mask(w[rows], v[rows], capacity,
                                tie_rank=rows * 3 + 7)
    assert {int(rows[r]) for r in _kept(by_row)} == expected


def _distinct_pool(n: int, light_from: int | None = None):
    """Weights 10 (1 from ``light_from`` on), values so that density falls
    strictly with position."""
    w = np.full(n, 10, dtype=np.int64)
    if light_from is not None:
        w[light_from:] = 1
    v = np.arange(n, 0, -1, dtype=np.float64) * w
    return w, v


class TestWhenTheKernelRanksEverything:
    """``_density_tail`` proves a tail, widens, or gives up — by rule."""

    def test_one_item_over_ranks_the_first_width(self):
        w, v = _distinct_pool(64)
        tail, head_weight = knapsack._density_tail(w, v, 640 - 1)
        # excess 1 of 640 bytes over 64 items: width 4 * (0 + 1)
        assert sorted(tail.tolist()) == [60, 61, 62, 63]
        assert head_weight == 600

    def test_tail_too_light_widens_fourfold(self):
        w, v = _distinct_pool(64, light_from=48)
        total = int(w.sum())            # 480 + 16
        tail, head_weight = knapsack._density_tail(w, v, total - 5)
        # first width 4 weighs 4 < 5; the second, 16, covers it
        assert sorted(tail.tolist()) == list(range(48, 64))
        assert head_weight == 480

    def test_deep_excess_is_not_attempted(self, monkeypatch):
        w, v = _distinct_pool(64)
        monkeypatch.setattr(np, "partition", None)   # would raise if called
        assert knapsack._density_tail(w, v, 640 * 7 // 10) is None

    def test_within_budget_has_no_tail(self):
        w, v = _distinct_pool(64)
        assert knapsack._density_tail(w, v, 640) is None

    def test_best_value_in_the_tail_ranks_everything(self):
        w, v = _distinct_pool(64)
        w[63], v[63] = 3000, 700.0      # lowest density, highest value
        capacity = int(w.sum()) - 1
        assert knapsack._density_tail(w, v, capacity) is None
        # ...and its equal above the cut restores the proof
        v[0] = 700.0
        assert knapsack._density_tail(w, v, capacity) is not None

    def test_fix_up_still_fires_through_the_full_ranking(self):
        w = np.array([1] * 20 + [19], dtype=np.int64)
        v = np.array([1.0] * 20 + [18.5], dtype=np.float64)
        # capacity 19: the crowd fills it for 19.0 and the big item is
        # worth less; at 18.4 for the crowd's last unit it would win.
        keep = knapsack_keep_mask(w, v, 19)
        assert _kept(keep) == set(range(19))
        v[20] = 19.5
        assert _kept(knapsack_keep_mask(w, v, 19)) == {20}


# -- the manager over a scrambled or restored table -------------------------

BIG_POOL = [f"ex-{i}" for i in range(40)]

_scramble = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.sampled_from(BIG_POOL), st.just(0)),
        st.tuples(st.just("add"), st.sampled_from(BIG_POOL),
                  st.sampled_from([0, 1, 2, 5])),
        st.tuples(st.just("access"), st.sampled_from(BIG_POOL), st.just(0)),
        st.tuples(st.just("record_use"), st.sampled_from(BIG_POOL),
                  st.sampled_from([0, 50, 100])),
        st.tuples(st.just("rewrite"), st.sampled_from(BIG_POOL),
                  st.sampled_from([0, 3])),
    ),
    max_size=40,
)


def _insertion_order(table) -> list[str]:
    rows = np.argsort(table.col(INSERTION_RANK)).tolist()
    return [table.owner(row).example_id for row in rows]


def _scrambled_pool(sizes, ops, overwrite, restore):
    """A 40-id pool after swap-deletes and one overwrite, plus its
    per-object reference; optionally round-tripped through a snapshot."""
    cache = ExampleCache(dim=64)
    clock = SimClock()
    config = ManagerConfig(sanitize=False, knapsack_exact_below=0)
    manager = ExampleManager(cache, config, clock=clock)
    reference: dict[str, RefExample] = {}
    for example_id, size in zip(BIG_POOL, sizes):
        _apply(cache, manager, clock, reference, "add", example_id, size)
    for op, example_id, arg in ops:
        _apply(cache, manager, clock, reference, op, example_id, arg)
    _apply(cache, manager, clock, reference, "overwrite", *overwrite)
    if restore:
        cache = _restored(cache)
        manager = ExampleManager(cache, config, clock=clock)
    return cache, manager, reference


@settings(**DETERMINISM)
@given(sizes=st.lists(st.sampled_from([0, 1, 2, 5]), min_size=40,
                      max_size=40),
       ops=_scramble,
       overwrite=st.tuples(st.sampled_from(BIG_POOL),
                           st.sampled_from([0, 1, 2, 5])),
       restore=st.booleans(), excess=st.integers(1, 400))
def test_eviction_over_scrambled_rows_matches_the_reference(
        sizes, ops, overwrite, restore, excess):
    """Swap-deletes, an overwrite and an ``adopt_columns`` restore leave
    row order arbitrary; the insertion rank still says what the cache's
    dict order says, and one over-budget pass evicts what the per-item
    solver rejects over the insertion-order pool, oldest first."""
    cache, manager, reference = _scrambled_pool(sizes, ops, overwrite,
                                                restore)
    assert _insertion_order(cache.table) == list(reference)
    assert [ex.example_id for ex in cache] == list(reference)

    # Columnar replay ranking: same examples, same order, ties included.
    engine = ReplayEngine(get_model("gemma-2-27b"), manager.config)
    from_columns = engine.candidates(cache.table)
    per_object = engine.candidates(cache.examples())
    assert len(from_columns) == len(per_object)
    assert all(a is b for a, b in zip(from_columns, per_object))

    capacity = max(0, cache.total_bytes - excess)
    manager.config.capacity_bytes = capacity
    items = [
        KnapsackItem(
            key=example_id, weight=ref.plaintext_bytes,
            value=(ref.offload_gain.raw or 0.0) * (1 + ref.access_count)
            + 1e-3)
        for example_id, ref in reference.items()
    ]
    keep = _reference_keep(items, capacity, exact=False)
    expected = [key for key in reference if key not in keep]

    journaled: list[tuple[str, object]] = []
    cache.journal = lambda kind, payload: journaled.append((kind, payload))
    assert manager.enforce_capacity() == len(expected)
    assert [payload for kind, payload in journaled
            if kind == "remove"] == expected
    for example_id in expected:
        del reference[example_id]
    assert _insertion_order(cache.table) == list(reference)
    _assert_state_matches(cache, reference)


def test_scrambled_restored_pool_takes_the_shortcut(monkeypatch):
    """The property above is about the tail path: on such a pool, one
    example over budget, the kernel does rank a proper tail."""
    ranked = []
    real = knapsack._density_tail

    def recording(w, v, capacity):
        tail = real(w, v, capacity)
        ranked.append(w.size if tail is None else tail[0].size)
        return tail

    monkeypatch.setattr(knapsack, "_density_tail", recording)
    ops = [("remove", f"ex-{i}", 0) for i in (3, 17, 0, 28)]
    cache, manager, _ = _scrambled_pool([1, 2, 5, 0] * 10, ops,
                                        ("ex-9", 5), restore=True)
    manager.config.capacity_bytes = cache.total_bytes - 1
    assert manager.enforce_capacity() >= 1
    assert len(ranked) == 1 and ranked[0] < len(cache) // 2


# -- a journaled serving run, shortcut on and off ---------------------------

SEED = 11
BANK = 120


def _at_capacity_run(directory) -> tuple[bytes, str, int]:
    """Serve 300 fresh requests on a full, journaled cache with three
    maintenance ticks; returns the journal, the index state, evictions."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    for done, request in enumerate(dataset.online_requests(300)):
        if done and done % 100 == 0:
            service.clock.advance(1800.0)
            service.run_maintenance(replay=True)
        service.serve(request, load=0.2)
    checkpointer.detach()
    index_state = json.dumps(_encode(service.cache._index.to_state()))
    return (checkpointer.wal_path.read_bytes(), index_state,
            service.manager.evictions)


def test_journal_and_index_identical_with_the_shortcut_disabled(
        tmp_path, monkeypatch):
    """Every admission of the run evicts through the tail path; ranking
    the whole pool instead must write the same journal, byte for byte,
    and leave the same index."""
    calls = []
    real = knapsack._density_tail

    def recording(w, v, capacity):
        tail = real(w, v, capacity)
        calls.append(tail is not None)
        return tail

    monkeypatch.setattr(knapsack, "_density_tail", recording)
    wal, index_state, evictions = _at_capacity_run(tmp_path / "tail")
    assert evictions >= 200 and sum(calls) >= 0.9 * len(calls)

    monkeypatch.setattr(knapsack, "_density_tail", lambda w, v, c: None)
    full_wal, full_index_state, full_evictions = _at_capacity_run(
        tmp_path / "full")
    assert full_evictions == evictions
    assert full_wal == wal
    assert full_index_state == index_state
    kinds = {record["kind"] for record in WriteAheadLog.read(
        tmp_path / "tail" / Checkpointer.WAL_NAME)}
    assert {"replay_rewrite", "remove"} <= kinds
