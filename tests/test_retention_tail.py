"""The one-victim retention pass against everything it must equal.

An over-budget admission proves, without ranking the pool, which single
item the greedy rejects (:func:`repro.analysis.knapsack._one_victim`), and
the kernel is handed raw table columns in *row* order with the insertion
rank as tie-break.  Neither may change a single decision, so the
properties here compare, item for item:

* the tie-ranked, row-order kernel against the per-item ``_solve_greedy``
  loop and against the same kernel fed insertion-order arrays — on pools
  of one item to a few dozen built to tie (weights and values from small
  sets, the 1e-3 value floor), with the best-single fix-up firing, zero
  weights, and excesses from one byte to most of the pool;
* :meth:`ExampleManager.enforce_capacity` on tables whose rows were
  scrambled by swap-deletes, or restored through
  ``ExampleTable.adopt_columns``, against the per-object reference;
* a journaled at-capacity serving run against the same run with the
  proof disabled — byte-identical ``wal.bin`` and index state.

Deterministic cases beside them pin each rule of the proof, so the
properties cannot pass by never taking the shortcut.
"""

from __future__ import annotations

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.analysis import knapsack
from repro.analysis.knapsack import knapsack_victims
from repro.core.cache import ExampleCache
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.manager import ExampleManager
from repro.core.replay import ReplayEngine
from repro.core.service import ICCacheService
from repro.core.table import INSERTION_RANK
from repro.llm.zoo import get_model
from repro.persistence.wal import Checkpointer, WriteAheadLog
from repro.utils.clock import SimClock
from repro.workload.datasets import SyntheticDataset
from tests import replay_reference
from tests import state_json
from tests.knapsack_reference import KnapsackItem, solve_knapsack
from tests.strategies import DETERMINISM, QUICK
from tests.test_core_table_properties import (
    RefExample,
    _apply,
    _assert_state_matches,
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
def _over_budget_cases(draw):
    n = draw(st.integers(1, 72))
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
        st.integers(1, max(1, total // 8)),       # a few items over
        st.integers(1, max(1, total)),            # deep: rank everything
    ))
    rows = draw(st.permutations(range(n)))        # row r holds item rows[r]
    return weights, values, max(0, total - excess), rows


def _kept(w, v, capacity, tie_rank=None) -> set[int]:
    """The positions the kernel keeps, ties broken by position unless
    ``tie_rank`` is given; its victims come in ascending tie rank."""
    w = np.asarray(w, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    tie_rank = np.arange(w.size) if tie_rank is None else tie_rank
    victims = knapsack_victims(w, v, capacity, tie_rank)
    assert victims == sorted(victims, key=tie_rank.__getitem__)
    return set(range(w.size)) - set(victims)


@settings(**QUICK)
@given(case=_over_budget_cases())
# every value on the floor, every weight equal: the whole pool ties, so the
# victim is the highest tie rank, and its maximal value has equals
@example(case=([3] * 20, [1e-3] * 20, 58, list(range(19, -1, -1))))
# one byte over, and the last-ranked item is worth more than all the rest:
# no proof, and the fix-up keeps it alone
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
    victim = (knapsack._one_victim(w[positive], v[positive], capacity,
                                   np.flatnonzero(positive))
              if capacity else None)
    event("ranked everything" if victim is None else "proved one victim")
    event("up to 64 items" if len(weights) <= 64 else "over 64 items")
    assert _kept(w, v, capacity) == expected

    rows = np.array(rows)
    # Gapped, offset ranks: only their order may matter.
    by_row = _kept(w[rows], v[rows], capacity, tie_rank=rows * 3 + 7)
    assert {int(rows[r]) for r in by_row} == expected


_BY_POSITION = np.arange(64)      # tie ranks for a 64-item pool


def _distinct_pool(n: int):
    """Weights 10, values so that density falls strictly with position."""
    w = np.full(n, 10, dtype=np.int64)
    v = np.arange(n, 0, -1, dtype=np.float64) * w
    return w, v


class TestTheOneVictimProof:
    """``_one_victim`` names the last-ranked item, or ranks nothing and
    leaves the pool to the full ranking — by rule."""

    def test_the_proof_holds_one_byte_over(self, monkeypatch):
        w, v = _distinct_pool(64)
        assert knapsack._one_victim(w, v, 640 - 1, _BY_POSITION) == 63
        monkeypatch.setattr(knapsack, "_rank", None)   # would raise if called
        assert _kept(w, v, 640 - 1) == set(range(63))

    def test_the_victim_lighter_than_the_excess_ranks_everything(self):
        w, v = _distinct_pool(64)
        w[63], v[63] = 4, 4.0            # still the lowest density
        total = int(w.sum())
        assert knapsack._one_victim(w, v, total - 4, _BY_POSITION) == 63
        assert knapsack._one_victim(w, v, total - 5, _BY_POSITION) is None
        assert _kept(w, v, total - 5) == set(range(62)) | {63}

    def test_the_victim_holding_the_unique_maximum_ranks_everything(self):
        w, v = _distinct_pool(64)
        w[63], v[63] = 3000, 700.0       # lowest density, highest value
        capacity = int(w.sum()) - 1
        assert knapsack._one_victim(w, v, capacity, _BY_POSITION) is None
        # ...and its equal anywhere else restores the proof
        v[0] = 700.0
        assert knapsack._one_victim(w, v, capacity, _BY_POSITION) == 63

    def test_within_budget_there_is_no_victim(self):
        w, v = _distinct_pool(64)
        assert knapsack._one_victim(w, v, 640, _BY_POSITION) is None
        assert knapsack._one_victim(w, v, 641, _BY_POSITION) is None

    def test_exact_ties_evict_the_highest_tie_rank(self):
        # Items 1, 3 and 4 tie in density (0.5) and value (1.0); item 2
        # ties in density only, at a higher value.
        w = np.array([1, 2, 4, 2, 2], dtype=np.int64)
        v = np.array([5.0, 1.0, 2.0, 1.0, 1.0])
        assert knapsack._one_victim(w, v, 10, np.arange(5)) == 4
        tie_rank = np.array([0, 9, 5, 2, 1])
        assert knapsack._one_victim(w, v, 10, tie_rank) == 1
        assert _kept(w, v, 10, tie_rank=tie_rank) == {0, 2, 3, 4}
        items = [KnapsackItem(key=i, weight=int(w[i]), value=float(v[i]))
                 for i in np.argsort(tie_rank).tolist()]
        assert solve_knapsack(items, 10) == {0, 2, 3, 4}

    def test_fix_up_still_fires_through_the_full_ranking(self):
        w = np.array([1] * 20 + [19], dtype=np.int64)
        v = np.array([1.0] * 20 + [18.5], dtype=np.float64)
        # capacity 19: the crowd fills it for 19.0 and the big item is
        # worth less; at 18.4 for the crowd's last unit it would win.
        assert _kept(w, v, 19) == set(range(19))
        v[20] = 19.5
        assert _kept(w, v, 19) == {20}


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


def _scrambled_pool(sizes, ops, restore):
    """A 40-id pool after swap-deletes and re-adds, plus its
    per-object reference; optionally round-tripped through a snapshot."""
    cache = ExampleCache(dim=64)
    clock = SimClock()
    config = ManagerConfig(sanitize=False)
    manager = ExampleManager(cache, config, clock=clock)
    reference: dict[str, RefExample] = {}
    for example_id, size in zip(BIG_POOL, sizes):
        _apply(cache, manager, clock, reference, "add", example_id, size)
    for op, example_id, arg in ops:
        _apply(cache, manager, clock, reference, op, example_id, arg)
    if restore:
        cache = _restored(cache)
        manager = ExampleManager(cache, config, clock=clock)
    return cache, manager, reference


@settings(**DETERMINISM)
@given(sizes=st.lists(st.sampled_from([0, 1, 2, 5]), min_size=40,
                      max_size=40),
       ops=_scramble, restore=st.booleans(), excess=st.integers(1, 400))
def test_eviction_over_scrambled_rows_matches_the_reference(
        sizes, ops, restore, excess):
    """Swap-deletes, re-adds and an ``adopt_columns`` restore leave
    row order arbitrary; the insertion rank still says what the cache's
    dict order says, and one over-budget pass evicts what the per-item
    solver rejects over the insertion-order pool, oldest first."""
    cache, manager, reference = _scrambled_pool(sizes, ops, restore)
    assert _insertion_order(cache.table) == list(reference)
    assert [ex.example_id for ex in cache] == list(reference)

    # Columnar replay ranking: same examples, same order, ties included.
    engine = ReplayEngine(get_model("gemma-2-27b"))
    from_columns = engine.candidates(cache.table)
    per_object = replay_reference.candidates(engine, cache.examples())
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
    keep = solve_knapsack(items, capacity)
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
    """The property above is about the proof's path: on such a pool, one
    example over budget, the kernel names the victim and ranks nothing."""
    victims = []
    real = knapsack._one_victim

    def recording(w, v, capacity, tie_rank):
        victims.append(real(w, v, capacity, tie_rank))
        return victims[-1]

    monkeypatch.setattr(knapsack, "_one_victim", recording)
    monkeypatch.setattr(knapsack, "_rank", None)     # would raise if called
    ops = [("remove", f"ex-{i}", 0) for i in (3, 17, 0, 28)]
    cache, manager, _ = _scrambled_pool([1, 2, 5, 0] * 10, ops,
                                        restore=True)
    manager.config.capacity_bytes = cache.total_bytes - 1
    assert manager.enforce_capacity() == 1
    assert len(victims) == 1 and victims[0] is not None


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
    index_state = state_json.dumps(service.cache._index.to_state())
    return (checkpointer.wal_path.read_bytes(), index_state,
            service.manager.evictions)


def test_journal_and_index_identical_with_the_proof_disabled(
        tmp_path, monkeypatch):
    """Nearly every admission of the run evicts through the proof; ranking
    the whole pool instead must write the same journal, byte for byte,
    and leave the same index."""
    calls = []
    real = knapsack._one_victim

    def recording(w, v, capacity, tie_rank):
        victim = real(w, v, capacity, tie_rank)
        calls.append(victim is not None)
        return victim

    monkeypatch.setattr(knapsack, "_one_victim", recording)
    wal, index_state, evictions = _at_capacity_run(tmp_path / "proof")
    assert evictions >= 200 and sum(calls) >= 0.9 * len(calls)

    monkeypatch.setattr(knapsack, "_one_victim", lambda w, v, c, t: None)
    full_wal, full_index_state, full_evictions = _at_capacity_run(
        tmp_path / "full")
    assert full_evictions == evictions
    assert full_wal == wal
    assert full_index_state == index_state
    kinds = {record["kind"] for record in WriteAheadLog.read(
        tmp_path / "proof" / Checkpointer.WAL_NAME)}
    assert {"replay_rewrite", "remove"} <= kinds
