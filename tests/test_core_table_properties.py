"""Property tests: the columnar ExampleTable vs a per-object reference.

The struct-of-arrays refactor moved every bookkeeping scalar and all three
EMA streams out of ``Example.__dict__`` into contiguous numpy columns on
:class:`repro.core.table.ExampleTable`, with ``Example`` reading and
writing its slot through properties.  The refactor's contract is *bit
identity*: every decision input downstream (decay, eviction value, proxy
features) must be the exact float the old per-object code produced.

Hypothesis drives arbitrary interleavings of every lifecycle mutation —
add, remove (exercising swap-delete row reuse), record_use,
whole-period decay (the vectorized ``*= factor ** periods`` broadcast),
access bumps, and the WAL's replay-rewrite pattern (in-place text +
bookkeeping overwrite) — against a pure-Python reference implementing the
pre-refactor per-object semantics.  After **every** operation the full
visible state is compared with exact ``==``, no tolerances.

A second property pins :func:`repro.analysis.knapsack.knapsack_victims`
(the eviction pass's array kernel) to the per-item reference solver's item
loop on identical inputs.  A third drives
:meth:`ExampleManager.enforce_capacity` after the same lifecycle
interleavings and requires the ids it evicts, and the order it evicts them
in, to be the reference solver's over the same pool.

A fourth is about the record itself: an ``Example`` is one row of one table
from construction on (its own one-row table, then the cache's, then its own
again), the table's ``plaintext_bytes`` column is the only byte ledger and
the cache's dict the only id map — so over add / remove / re-add /
text-rebind / snapshot-restore interleavings the three byte totals
agree after every step, every row's owner is its example, iteration is
insertion order, and no move between tables changes a bit of an example.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.knapsack import knapsack_victims
from repro.core.cache import ExampleCache
from repro.core.config import ManagerConfig
from repro.core.manager import DECAY_FACTOR, DECAY_PERIOD_S, ExampleManager
from repro.core.replay import replay_gain
from repro.core.table import EMA_STREAMS, EMBEDDING_ROW_NORM, INSERTION_RANK
from repro.persistence.snapshot import cache_state, restore_cache_state
from repro.utils.clock import SimClock
from repro.utils.tokens import count_tokens
from tests import state_json
from tests.ema_reference import RefEMA, streams
from tests.knapsack_reference import KnapsackItem, solve_knapsack
from tests.strategies import DETERMINISM, QUICK
from tests.test_core_cache import make_example

POOL = [f"ex-{i}" for i in range(6)]


class RefExample:
    """Per-object bookkeeping exactly as the old dataclass stored it."""

    def __init__(self, request_text: str, response_text: str,
                 quality: float, embedding: np.ndarray) -> None:
        self.request_text = request_text
        self.response_text = response_text
        self.quality = quality
        self.embedding = embedding
        self.access_count = 0
        self.replay_count = 0
        self.source_cost = 1.0
        self.created_at = 0.0
        self.gain_ema = RefEMA(alpha=0.2)
        self.offload_gain = RefEMA(alpha=0.3)
        self.feedback_quality = RefEMA(alpha=0.3)

    @property
    def plaintext_bytes(self) -> int:
        return (len(self.request_text.encode("utf-8"))
                + len(self.response_text.encode("utf-8")))

    @property
    def tokens(self) -> int:
        return count_tokens(self.request_text) + count_tokens(
            self.response_text)


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(POOL), st.integers(0, 30)),
        st.tuples(st.just("remove"), st.sampled_from(POOL), st.just(0)),
        st.tuples(st.just("access"), st.sampled_from(POOL), st.just(0)),
        st.tuples(st.just("record_use"), st.sampled_from(POOL),
                  st.integers(0, 100)),
        st.tuples(st.just("decay"), st.just(""), st.integers(1, 3)),
        st.tuples(st.just("rewrite"), st.sampled_from(POOL),
                  st.integers(0, 40)),
    ),
    min_size=1, max_size=50,
)


def _add(cache, reference, example_id: str, size: int) -> None:
    text = "q " * size + "question"
    example = make_example(example_id=example_id,
                           direction=hash(example_id) % 64, text=text)
    cache.add(example)
    reference[example_id] = RefExample(
        request_text=example.request.text,
        response_text=example.response_text,
        quality=example.quality,
        embedding=np.array(example.embedding),
    )


def _apply(cache, manager, clock, reference, op, example_id, arg) -> None:
    present = example_id in reference
    if op == "add":
        if not present:
            _add(cache, reference, example_id, arg)
    elif op == "remove":
        if present:
            cache.remove(example_id)
            del reference[example_id]
    elif op == "access":
        if present:
            cache.get(example_id).record_access()
            reference[example_id].access_count += 1
    elif op == "record_use":
        if present:
            quality = arg / 100.0
            offloaded = arg % 2 == 0
            manager.record_use(cache.get(example_id), quality,
                               model_cost=0.25, offloaded=offloaded)
            ref = reference[example_id]
            ref.gain_ema.update(replay_gain(quality, 0.25))
            ref.feedback_quality.update(quality)
            ref.offload_gain.update(1.0 if offloaded else 0.0)
    elif op == "decay":
        periods = arg
        clock.advance(periods * DECAY_PERIOD_S)
        manager.apply_decay()
        for ref in reference.values():
            ref.offload_gain.decay(DECAY_FACTOR, periods)
            ref.gain_ema.decay(DECAY_FACTOR, periods)
    elif op == "rewrite":
        if present:
            # The WAL replay-rewrite pattern: in-place field overwrite
            # through the property setters (mirrors
            # repro.persistence.wal._apply_replay_rewrite).
            example = cache.get(example_id)
            ref = reference[example_id]
            new_text = "refined " + "r " * arg
            example.response_text = new_text
            example.replay_count = example.replay_count + 1
            ref.response_text = new_text
            ref.replay_count += 1


def _assert_ema_matches(got: RefEMA, ref: RefEMA, label: str) -> None:
    assert got.alpha == ref.alpha, label
    assert got.count == ref.count, label
    assert got.raw == ref.raw, label


def _assert_state_matches(cache, reference) -> None:
    table = cache.table
    assert len(cache) == len(reference)
    for example_id, ref in reference.items():
        example = cache.get(example_id)
        row = example.__dict__["_row"]
        assert example.__dict__["_table"] is table
        assert table.owner(row) is example
        assert 0 <= row < len(reference)
        assert example.quality == ref.quality, example_id
        assert example.access_count == ref.access_count, example_id
        assert example.replay_count == ref.replay_count, example_id
        assert example.source_cost == ref.source_cost, example_id
        assert example.created_at == ref.created_at, example_id
        assert example.plaintext_bytes == ref.plaintext_bytes, example_id
        assert example.tokens == ref.tokens, example_id
        assert example.embedding_norm == float(
            np.linalg.norm(ref.embedding)), example_id
        # The row the table owns, wherever swap-deletes have moved it.
        assert example.embedding.tobytes() == ref.embedding.tobytes(), \
            example_id
        assert table.col(EMBEDDING_ROW_NORM)[row] == float(
            np.linalg.norm(ref.embedding[None, :], axis=1)[0]), example_id
        got = streams(example)
        for stream in EMA_STREAMS:
            _assert_ema_matches(got[stream], getattr(ref, stream),
                                f"{example_id}.{stream}")


@settings(**QUICK)
@given(ops=_ops)
def test_table_columns_match_per_object_reference(ops):
    """Every lifecycle interleaving leaves the columns bit-identical to
    the per-object bookkeeping they replaced — including rows recycled
    by swap-delete."""
    cache = ExampleCache(dim=64)
    clock = SimClock()
    manager = ExampleManager(cache, ManagerConfig(sanitize=False),
                             clock=clock)
    reference: dict[str, RefExample] = {}
    for op, example_id, arg in ops:
        _apply(cache, manager, clock, reference, op, example_id, arg)
        _assert_state_matches(cache, reference)


@settings(**QUICK)
@given(ops=_ops)
def test_detach_reuses_rows_and_keeps_survivors_intact(ops):
    """Emptying the cache row by row: each swap-delete rebinds the moved
    example in place, and survivors keep exact state throughout."""
    cache = ExampleCache(dim=64)
    clock = SimClock()
    manager = ExampleManager(cache, ManagerConfig(sanitize=False),
                             clock=clock)
    reference: dict[str, RefExample] = {}
    for op, example_id, arg in ops:
        _apply(cache, manager, clock, reference, op, example_id, arg)
    for example_id in list(reference):
        cache.remove(example_id)
        del reference[example_id]
        _assert_state_matches(cache, reference)
    assert len(cache.table) == 0


def _tenths(lo: int, hi: int):
    """Inexact floats (k/10): the order a total is summed in shows in its
    last bits."""
    return st.integers(lo, hi).map(lambda k: k / 10.0)


def _pool(weights, values, **sizes):
    return st.lists(st.tuples(weights, values), **sizes)


# ((weight, value) pool, capacity) shapes the run-jumping kernel must get
# exactly right, beside the general case.
_knapsack_cases = st.one_of(
    st.tuples(_pool(st.integers(0, 50), _tenths(0, 1000),
                    min_size=0, max_size=12), st.integers(0, 200)),
    # heavy ties: value = weight * 0.5 or weight * 1.0, so density ties
    # across different weights and values, zero-weight items among them
    st.tuples(_pool(st.integers(0, 4), st.sampled_from([0.5, 1.0]),
                    min_size=0, max_size=16
                    ).map(lambda pool: [(w, w * k) for w, k in pool]),
              st.integers(0, 24)),
    # capacity far below the total: most of the ranking is misfits, with
    # light items that still fit scattered between them
    st.tuples(_pool(st.sampled_from([1, 2, 30, 45, 50]), _tenths(0, 1000),
                    min_size=8, max_size=40), st.integers(0, 60)),
    # a dense crowd, and one item about as valuable as all of it that only
    # fits alone: the best-single-item fix-up decides
    st.tuples(
        st.builds(lambda crowd, big, at: crowd[:at] + [big] + crowd[at:],
                  _pool(st.integers(1, 3), st.sampled_from([0.5, 1.0, 1.5]),
                        min_size=1, max_size=8),
                  st.tuples(st.integers(8, 12),
                            st.integers(1, 24).map(lambda k: k / 2.0)),
                  st.integers(0, 8)),
        st.integers(8, 14)),
)

# Sequentially in rank order the twelve small values sum to
# 7.1000000000000005; pairwise, reversed or in position order to 7.1.  The
# last item is worth exactly the former, so it must NOT displace them.
_SUM_ORDER_CASE = ([(1, 0.6), (3, 0.9), (2, 0.9), (2, 0.7), (1, 0.1),
                    (2, 0.2), (1, 0.7), (3, 0.5), (3, 0.9), (3, 0.7),
                    (1, 0.8), (2, 0.1), (24, 7.1000000000000005)], 24)


@settings(**QUICK)
@given(case=_knapsack_cases)
# equal density: the more valuable item ranks first and crowds the other out
@example(case=([(1, 0.5), (2, 1.0)], 2))
# a single item worth exactly the greedy total does not replace it
@example(case=([(1, 1.0), (1, 1.0), (3, 2.0)], 3))
@example(case=_SUM_ORDER_CASE)
# of two identical items the earlier one is kept
@example(case=([(2, 1.0), (2, 1.0)], 2))
def test_array_knapsack_matches_per_item_reference(case):
    """The eviction pass's array kernel drops the per-item solver's exact
    answer, position for position, in position order — run-jumping
    against the item loop."""
    pool, capacity = case
    keys = [f"k-{i}" for i in range(len(pool))]
    items = [KnapsackItem(key=key, weight=w, value=v)
             for key, (w, v) in zip(keys, pool)]
    weights = np.array([w for w, _ in pool], dtype=np.int64)
    values = np.array([v for _, v in pool], dtype=np.float64)
    expected = solve_knapsack(items, capacity)
    victims = knapsack_victims(weights, values, capacity,
                               np.arange(len(pool)))
    assert victims == [i for i, key in enumerate(keys) if key not in expected]


@settings(**QUICK)
@given(ops=_ops, percent=st.integers(0, 100))
# equal size and gain: the access count alone decides which one stays
@example(ops=[("add", "ex-0", 5), ("add", "ex-1", 5),
              ("record_use", "ex-0", 100), ("record_use", "ex-1", 100),
              ("access", "ex-1", 0)], percent=50)
def test_enforce_capacity_evicts_what_the_reference_solver_would(
        ops, percent):
    """After any lifecycle interleaving, one over-budget pass removes the
    ids the per-item solver rejects over the same pool (cache-insertion
    order, per-object weights and values), oldest first, one journaled
    remove each, and leaves every survivor's state untouched."""
    cache = ExampleCache(dim=64)
    clock = SimClock()
    manager = ExampleManager(cache, ManagerConfig(sanitize=False), clock=clock)
    reference: dict[str, RefExample] = {}
    for op, example_id, arg in ops:
        _apply(cache, manager, clock, reference, op, example_id, arg)
    capacity = cache.total_bytes * percent // 100
    manager.config.capacity_bytes = capacity

    items = [
        KnapsackItem(
            key=example_id,
            weight=ref.plaintext_bytes,
            value=(ref.offload_gain.raw or 0.0) * (1 + ref.access_count)
            + 1e-3)
        for example_id, ref in reference.items()
    ]
    keep = solve_knapsack(items, capacity)
    expected = ([] if cache.total_bytes <= capacity
                else [key for key in reference if key not in keep])

    journaled: list[tuple[str, object]] = []
    cache.journal = lambda kind, payload: journaled.append((kind, payload))
    assert manager.enforce_capacity() == len(expected)
    assert [payload for kind, payload in journaled
            if kind == "remove"] == expected
    assert manager.evictions == len(expected)
    for example_id in expected:
        del reference[example_id]
    assert [example.example_id for example in cache] == list(reference)
    _assert_state_matches(cache, reference)


# -- one record per cached example ------------------------------------------

_record_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(POOL), st.integers(0, 30)),
        st.tuples(st.just("remove"), st.sampled_from(POOL), st.just(0)),
        st.tuples(st.just("readd"), st.sampled_from(POOL), st.just(0)),
        st.tuples(st.just("rebind"), st.sampled_from(POOL),
                  st.integers(0, 40)),
        st.tuples(st.just("record_use"), st.sampled_from(POOL),
                  st.integers(0, 100)),
        st.tuples(st.just("restore"), st.just(""), st.just(0)),
    ),
    min_size=1, max_size=40,
)


def _restored(cache) -> ExampleCache:
    """The cache's state through a snapshot's JSON form into a fresh cache."""
    state = state_json.loads(state_json.dumps(cache_state(cache)))
    fresh = ExampleCache(dim=64)
    restore_cache_state(fresh, state)
    return fresh


def _fingerprint(example) -> tuple:
    """Every table-backed field of an example, floats by their bits."""
    d = example.__dict__
    table, row = d["_table"], d["_row"]
    return (example.example_id, example.request.text, example.response_text,
            example.source_model, np.float64(example.quality).tobytes(),
            np.float64(example.source_cost).tobytes(),
            np.float64(example.created_at).tobytes(),
            example.access_count, example.replay_count, example.tokens,
            example.plaintext_bytes,
            np.float64(example.embedding_norm).tobytes(),
            np.float64(table.col(EMBEDDING_ROW_NORM)[row]).tobytes(),
            example.embedding.tobytes(),
            tuple(np.float64(x).tobytes() for x in example.journal_row()))


def _assert_one_record(cache, order: list[str]) -> None:
    table = cache.table
    assert [example.example_id for example in cache] == order
    assert len(table) == len(cache) == len(order)
    assert cache.total_bytes == int(table.col("plaintext_bytes").sum()) \
        == sum(example.plaintext_bytes for example in cache)
    assert isinstance(cache.total_bytes, int)
    for example in cache:
        assert example.__dict__["_table"] is table
        assert table.owner(example.__dict__["_row"]) is example
    rows = np.argsort(table.col(INSERTION_RANK)).tolist()
    assert [table.owner(row).example_id for row in rows] == order


@settings(**DETERMINISM)
@given(ops=_record_ops)
# an evicted example goes back in after a rebind while it was out, then the
# pool is restored and an older example leaves
@example(ops=[("add", "ex-0", 3), ("add", "ex-1", 0), ("remove", "ex-0", 0),
              ("rebind", "ex-0", 9), ("readd", "ex-0", 0), ("restore", "", 0),
              ("remove", "ex-1", 0)])
def test_one_record_per_cached_example(ops):
    cache = ExampleCache(dim=64)
    manager = ExampleManager(cache, ManagerConfig(sanitize=False))
    order: list[str] = []               # the model: ids in insertion order
    evicted: dict[str, object] = {}     # standalone again, state kept

    def moved_unchanged(example, move):
        before = _fingerprint(example)
        move()
        assert _fingerprint(example) == before

    for op, example_id, arg in ops:
        cached = example_id in order
        if op == "add" and not cached:
            fresh = make_example(example_id=example_id,
                                 direction=hash(example_id) % 64,
                                 text="q " * arg + "question")
            moved_unchanged(fresh, lambda: cache.add(fresh))
            order.append(example_id)
            evicted.pop(example_id, None)
        elif op == "remove" and cached:
            leaving = cache.get(example_id)
            moved_unchanged(leaving, lambda: cache.remove(example_id))
            order.remove(example_id)
            evicted[example_id] = leaving
        elif op == "readd" and not cached and example_id in evicted:
            back = evicted.pop(example_id)
            moved_unchanged(back, lambda: cache.add(back))
            order.append(example_id)
        elif op == "rebind" and (cached or example_id in evicted):
            target = (cache.get(example_id) if cached
                      else evicted[example_id])
            target.response_text = "refined " + "r " * arg
            assert target.plaintext_bytes == len(
                target.request.text.encode()) + len(
                target.response_text.encode())
        elif op == "record_use" and cached:
            manager.record_use(cache.get(example_id), arg / 100.0,
                               model_cost=0.25, offloaded=arg % 2 == 0)
        elif op == "restore":
            prints = [_fingerprint(example) for example in cache]
            cache = _restored(cache)
            manager = ExampleManager(cache, ManagerConfig(sanitize=False))
            assert [_fingerprint(example) for example in cache] == prints
        _assert_one_record(cache, order)
