"""Property test: the cache's O(1) byte counter never drifts.

``total_bytes`` is the table's running sum of its ``plaintext_bytes``
column, moved by ``add``/``remove`` and by every text rebind (the WAL's
replay-rewrite path).  This Hypothesis test drives arbitrary
interleavings of all three mutation kinds against a fresh cache and asserts,
after every operation, that the counter equals the recomputed ground truth
— locking it against drift from any new mutation path.

Rewrites mirror ``repro.persistence.wal._apply_replay_rewrite`` exactly:
mutate ``response_text`` in place, nothing more.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ExampleCache
from tests.strategies import QUICK
from tests.test_core_cache import make_example

POOL = [f"ex-{i}" for i in range(8)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(POOL),
                  st.integers(0, 40)),
        st.tuples(st.just("remove"), st.sampled_from(POOL),
                  st.just(0)),
        st.tuples(st.just("rewrite"), st.sampled_from(POOL),
                  st.integers(0, 60)),
    ),
    min_size=1, max_size=40,
)


def _recomputed(cache: ExampleCache) -> int:
    return sum(example.plaintext_bytes for example in cache)


def _apply(cache: ExampleCache, op: str, example_id: str, size: int) -> None:
    present = any(e.example_id == example_id for e in cache)
    text = "q " * size
    if op == "add":
        if present:
            return
        cache.add(make_example(example_id=example_id,
                               direction=hash(example_id) % 64, text=text))
    elif op == "remove":
        if not present:
            return
        cache.remove(example_id)
    elif op == "rewrite":
        if not present:
            return
        # The WAL replay-rewrite pattern: in-place response mutation
        # (wal._apply_replay_rewrite); the rebind moves the counter.
        cache.get(example_id).response_text = "refined " + "r " * size


@settings(**QUICK)
@given(ops=_ops)
def test_total_bytes_matches_recomputed_sum(ops):
    cache = ExampleCache(dim=64)
    for op, example_id, size in ops:
        _apply(cache, op, example_id, size)
        assert cache.total_bytes == _recomputed(cache), (
            f"byte counter drifted after {op}({example_id!r}, size={size})"
        )
    assert cache.total_bytes == int(
        cache.table.col("plaintext_bytes").sum())


@settings(**QUICK)
@given(ops=_ops)
def test_empty_after_removing_everything(ops):
    cache = ExampleCache(dim=64)
    for op, example_id, size in ops:
        _apply(cache, op, example_id, size)
    for example in list(cache):
        cache.remove(example.example_id)
    assert cache.total_bytes == 0
