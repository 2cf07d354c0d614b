"""Replay ranks, cuts off and resets on the table's columns.

:meth:`ReplayEngine.candidates` filters and ranks the whole pool on three
columns, :meth:`ReplayEngine.run` reads its cost cut-off from the gain
column, and :meth:`ReplayEngine.replay_one` resets a replayed row's gain
with :meth:`ExampleTable.reset_gain`.  The per-object pass those replaced
is kept in ``tests/replay_reference.py``: every example's G(e) read on its
own, a stable sort, the generate-based ``replay_one`` and the reference EMA
arithmetic.  On twin pools — rows scrambled by swap-deletes, re-adds and
a snapshot restore, or topic-clustered — with gains drawn from a few
values (ties), replay counts at and past the cap and rows never used, both
must pick the same examples in the same order, report the same outcome and
leave equal table columns, texts and teacher decode positions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.cache import ExampleCache
from repro.core.example import Example
from repro.core.replay import ReplayEngine
from repro.llm.zoo import get_model
from tests import replay_reference
from tests.clustered_pool import clustered_vectors
from tests.conftest import make_request
from tests.ema_reference import RefEMA, streams, write_streams
from tests.strategies import DETERMINISM
from tests.test_retention_tail import _scramble, _scrambled_pool

#: G(e) values that tie, straddle the default cut-off (0.15 over a reuse of
#: 20 is a gain of 0.0075) and sit on it; None: never used.
_GAINS = st.sampled_from([None, 0.0, 0.005, 0.0075, 0.01, 0.125, 0.25])
_REPLAY_COUNTS = st.sampled_from([0, 0, 1, 4, 5, 7])   # the cap is 5
_REUSES = st.sampled_from([1.0, 5.0, 20.0, 100.0])


def _set_gain(example, gain) -> None:
    """Overwrite an example's G(e) stream (None: back to never used)."""
    write_streams(example, {"gain_ema": RefEMA(
        alpha=0.2, raw=gain, count=0 if gain is None else 3)})


def _state(cache, engine) -> dict:
    table = cache.table
    return {
        "columns": {name: table.col(name).tobytes() for name in table._cols},
        "texts": [(ex.example_id, ex.response_text) for ex in cache],
        "decode_counts": dict(engine.teacher._decode_counts),
    }


def _assert_replay_matches_reference(build, reuse: float) -> None:
    """Build twin pools, replay one on the columns and the other by the
    per-object reference, and compare everything replay touches."""
    ours, theirs = build(), build()
    engine = ReplayEngine(get_model("gemma-2-27b"))
    reference = ReplayEngine(get_model("gemma-2-27b"))
    assert _state(ours, engine) == _state(theirs, reference)

    ranked = engine.candidates(ours.table)
    expected = replay_reference.candidates(reference, theirs.examples())
    assert [ex.example_id for ex in ranked] == \
        [ex.example_id for ex in expected]
    gains = [streams(ex)["gain_ema"].value for ex in ranked]
    event("tied gains" if len(set(gains)) < len(gains) else "no ties")

    outcome = engine.run(ours.table, expected_reuse=reuse)
    oracle = replay_reference.run(reference, theirs.examples(),
                                  expected_reuse=reuse)
    assert (outcome.replayed, outcome.improved, outcome.skipped_budget,
            outcome.total_quality_gain) == \
        (oracle.replayed, oracle.improved, oracle.skipped_budget,
         oracle.total_quality_gain)
    assert [ex.example_id for ex in outcome.examples] == \
        [ex.example_id for ex in oracle.examples]
    event(f"{'cut off' if outcome.skipped_budget else 'no cut-off'} after "
          f"{'no' if not outcome.replayed else 'some'} replays")
    assert _state(ours, engine) == _state(theirs, reference)


@settings(**DETERMINISM)
@given(sizes=st.lists(st.sampled_from([0, 1, 2, 5]), min_size=40,
                      max_size=40),
       ops=_scramble,
       restore=st.booleans(),
       gains=st.lists(st.none() | _GAINS, min_size=40, max_size=40),
       replay_counts=st.lists(_REPLAY_COUNTS, min_size=40, max_size=40),
       reuse=_REUSES)
# every gain tied and ex-39's row moved to the front: insertion order wins
@example(sizes=[1] * 40, ops=[("remove", "ex-0", 0)], restore=False,
         gains=[0.25] * 40, replay_counts=[0] * 40, reuse=1.0)
def test_replay_over_scrambled_rows_matches_the_reference(
        sizes, ops, restore, gains, replay_counts, reuse):
    """Rows in arbitrary order (the lifecycle's own record_use gains, some
    overwritten with tied ones): the ranking's ties fall in insertion
    order, exactly as the stable per-object sort leaves them."""

    def build():
        cache, _, _ = _scrambled_pool(sizes, ops, restore)
        for ex, gain, count in zip(cache.examples(), gains, replay_counts):
            if gain is not None:            # None here: keep the ops' gain
                _set_gain(ex, gain)
            ex.replay_count = count
        return cache

    _assert_replay_matches_reference(build, reuse)


@settings(**DETERMINISM)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**16),
       states=st.lists(st.tuples(_GAINS, _REPLAY_COUNTS,
                                 st.sampled_from([0.1, 0.5, 0.95])),
                       min_size=48, max_size=48),
       uses=st.lists(st.integers(0, 47), max_size=12),
       gone=st.lists(st.integers(0, 47), max_size=6),
       reuse=_REUSES)
@example(n=6, seed=0, states=[(0.25, 0, 0.1)] * 48, uses=[], gone=[0],
         reuse=20.0)
@example(n=4, seed=1, states=[(None, 0, 0.5)] * 48, uses=[], gone=[],
         reuse=20.0)
def test_replay_over_clustered_pools_matches_the_reference(
        n, seed, states, uses, gone, reuse):
    """A topic-clustered pool: tied and never-used gains, capped rows, a
    few rows fed by ``record_use`` on top, and a few evicted (each
    swap-delete moves the last row into the hole)."""
    rows = clustered_vectors(n, 64, n_topics=4, seed=seed)

    def build():
        cache = ExampleCache(dim=64)
        for i, (gain, count, quality) in enumerate(states[:n]):
            request = make_request(f"req-{i}", topic_latent=rows[i])
            ex = Example(f"ex-{i}", request,
                         "cached response " + "w " * (i % 7), rows[i],
                         quality=quality, source_model="gemma-2-27b",
                         source_cost=1.0, replay_count=count)
            cache.add(ex)
            if gain is not None:
                _set_gain(ex, gain)
        for i in uses:
            if i < n:
                cache.get(f"ex-{i}").record_use(0.25, 0.5, 1.0)
        for i in gone:
            if f"ex-{i}" in cache:
                cache.remove(f"ex-{i}")
        return cache

    _assert_replay_matches_reference(build, reuse)


@pytest.mark.parametrize("raw", [None, 0.0, -0.0, 0.7, -3.5, float("inf"),
                                 float("nan"), 5e-324])
def test_reset_gain_is_a_zero_decay_bit_for_bit(raw):
    """``value *= 0.0`` on the row: what decaying the stream by 0.0 leaves
    (a NaN stays NaN, a negative gain becomes -0.0, an uninitialized
    stream is left as it was), and no other slot moves."""
    cache = ExampleCache(dim=64)
    for i in range(3):
        cache.add(Example(f"ex-{i}", make_request(f"req-{i}"), "r",
                          np.eye(64)[i], quality=0.5,
                          source_model="gemma-2-27b", source_cost=1.0))
        _set_gain(cache.get(f"ex-{i}"), 0.3)
    target = cache.get("ex-1")
    _set_gain(target, raw)
    before = [ex.journal_row() for ex in cache]
    expected = streams(target)["gain_ema"]
    expected.decay(0.0)

    with np.errstate(invalid="ignore"):             # inf * 0.0
        cache.table.reset_gain(target.__dict__["_row"])
    got = streams(target)["gain_ema"]
    assert (got.alpha, got.count, got.initialized) == \
        (expected.alpha, expected.count, expected.initialized)
    assert np.float64(got.value).tobytes() == \
        np.float64(expected.value).tobytes()
    after = [ex.journal_row() for ex in cache]
    assert [after[0], after[2]] == [before[0], before[2]]
    assert after[1][:6] == before[1][:6] and after[1][7:] == before[1][7:]
