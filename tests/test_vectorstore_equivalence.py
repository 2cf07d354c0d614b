"""Vectorized hot path == pure-Python reference, across churn and ties.

The contiguous cluster-major IVF layout replaced per-candidate Python loops
with one vectorized einsum per probed cluster.  These tests pin the contract
that made that refactor safe:

* :meth:`IVFIndex.search` returns the same keys, in the same order, with the
  same scores as a pure-Python loop over the posting lists — across
  randomized pools, removals, re-adds, and exact ties (duplicate vectors),
  where ordering is decided purely by the stable tie-break — and
  :meth:`IVFIndex.search_batch` returns exactly what ``search`` does;
* :meth:`ExampleSelector.select` with vectorized stage-2 scoring picks the
  same example combinations as a per-candidate ``proxy.predict`` loop;
* every add and every remove counts as ONE churn event, so retrains fire at
  the cadence ``RETRAIN_THRESHOLD`` promises (locked via ``trainings``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import selector as selector_module
from repro.core.config import SelectorConfig
from repro.core.proxy import HelpfulnessProxy, proxy_features_matrix
from repro.core.selector import ExampleSelector
from repro.vectorstore.flat import FlatIndex, SearchResult
from repro.vectorstore.ivf import IVFIndex

from tests.hotpath_reference import predict
from tests.search_reference import reference_search
from tests.strategies import DETERMINISM, VectorPool, vector_pools
from tests.test_core_selector import build_selector, query_direction

DIM = 16


def clustered(rng: np.random.Generator, n: int, n_centers: int = 8
              ) -> np.ndarray:
    centers = rng.normal(size=(n_centers, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs = centers[rng.integers(0, n_centers, size=n)]
    vecs = vecs + rng.normal(0.0, 0.2, size=(n, DIM))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def assert_same_results(got: list[SearchResult], want: list[SearchResult]):
    assert [r.key for r in got] == [r.key for r in want]
    np.testing.assert_allclose(
        [r.score for r in got], [r.score for r in want], rtol=0, atol=1e-12
    )


class TestSearchMatchesReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_pool_with_removals_and_re_adds(self, seed):
        rng = np.random.default_rng(seed)
        vecs = clustered(rng, 300)
        index = IVFIndex(dim=DIM, nprobe=3, seed=seed)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        index.search(vecs[0], 1)  # force training
        assert index.is_trained

        # Churn: removals and re-adds below the retrain threshold (70 of
        # int(0.3 * 260) = 78), so the swap-delete layout (not a fresh
        # retrain) is what search runs over.
        for key in rng.choice(300, size=40, replace=False):
            index.remove(int(key))
        for key, vec in zip(rng.choice(list(index._key_to_cluster), size=15,
                                       replace=False),
                            clustered(rng, 15)):
            index.remove(key)
            index.add(key, vec)  # re-adds
        assert index.is_trained

        for query in clustered(rng, 25):
            got = index.search(query, 10)
            assert_same_results(got, reference_search(index, query, 10))

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_ties_resolve_in_reference_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        vecs = clustered(rng, 200)
        index = IVFIndex(dim=DIM, nprobe=4, seed=seed)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        # Duplicate vectors under fresh keys: exact score ties whose relative
        # order is decided purely by the stable tie-break.
        for i in range(12):
            index.add(f"dup-{i}", vecs[i % 3])
        index.search(vecs[0], 1)  # force training
        for i in range(12, 18):   # post-training appends join cluster blocks
            index.add(f"dup-{i}", vecs[i % 3])

        for query in (vecs[0], vecs[1], vecs[2]):
            got = index.search(query, 15)
            want = reference_search(index, query, 15)
            assert_same_results(got, want)
            assert len({r.score for r in got}) < len(got), "no tie exercised"

    def test_search_batch_agrees_with_search(self):
        rng = np.random.default_rng(7)
        vecs = clustered(rng, 400)
        index = IVFIndex(dim=DIM, nprobe=3, seed=7)
        for i, vec in enumerate(vecs):
            index.add(i, vec)
        queries = clustered(rng, 16)
        index.search(queries[0], 1)
        batched = index.search_batch(queries, 8)
        for query, batch_hits in zip(queries, batched):
            assert index.search(query, 8) == batch_hits     # bit for bit


class TestRepeatedProbeReusesTopHit:
    """``search(q, 1)`` straight after ``search(q, k)`` (admission's dedupe
    probe after stage 1) answers from the first search's top hit — and only
    while the index is exactly the index that search scored."""

    @staticmethod
    def _trained(pool: VectorPool) -> IVFIndex:
        index = IVFIndex(dim=pool.dim, nprobe=3, seed=1)
        for row, vec in enumerate(pool.vectors):
            index.add(row, vec)
        assert index.retrain()
        return index

    @staticmethod
    def _fresh_probe(index: IVFIndex, query: np.ndarray) -> list[SearchResult]:
        """The k=1 answer of a restored copy, which has nothing to reuse."""
        return IVFIndex.from_state(index.to_state()).search(query, 1)

    @settings(**DETERMINISM)
    @given(pool=vector_pools(min_duplicates=2))
    def test_reused_hit_equals_a_real_probe(self, pool: VectorPool):
        index = self._trained(pool)
        scored = []
        matrix = FlatIndex.matrix.fget
        for query in pool.queries(6):
            first = index.search(query, 12)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(FlatIndex, "matrix", property(
                    lambda block: scored.append(1) or matrix(block)))
                again = index.search(query, 1)
            assert again == first[:1] == self._fresh_probe(index, query)
        assert not scored, "the repeated probe scored blocks again"

    def test_any_mutation_forces_a_real_probe(self):
        pool = VectorPool(seed=3, n=150, dim=8, duplicates=[(0, 1)])
        index = self._trained(pool)
        query = pool.queries(1)[0]
        top = index.search(query, 12)[0]

        index.add("twin", query)                       # add
        assert index.search(query, 1)[0].key == "twin"
        index.search(query, 12)
        index.remove("twin")                           # remove
        assert index.search(query, 1) == [top]
        index.search(query, 12)
        index.remove(top.key)                          # re-add
        index.add(top.key, -query)
        assert index.search(query, 1)[0].key != top.key
        index.search(query, 12)
        assert index.retrain()                         # retrain
        assert index.search(query, 1) == self._fresh_probe(index, query)

    def test_query_edited_in_place_is_a_new_question(self):
        pool = VectorPool(seed=4, n=150, dim=8, duplicates=[])
        index = self._trained(pool)
        query = pool.queries(1)[0].copy()
        index.search(query, 12)
        query[:] = pool.vectors[17]
        assert index.search(query, 1) == self._fresh_probe(index, query)
        assert index.search(query, 1)[0].key == 17


class TestChurnAccounting:
    def _trained(self, seed=0, n=64):
        rng = np.random.default_rng(seed)
        index = IVFIndex(dim=DIM, nprobe=2, seed=seed)
        for i, vec in enumerate(clustered(rng, n)):
            index.add(i, vec)
        index.search(index.get_vector(0), 1)
        assert index.trainings == 1
        return index, rng

    def test_add_plus_remove_still_two_events(self):
        index, rng = self._trained()
        for i in range(10):  # 10 inserts + 9 removes = 19 events
            index.add(1000 + i, clustered(rng, 1)[0])
            if i < 9:
                index.remove(1000 + i)
        index.search(index.get_vector(0), 1)
        assert index.trainings == 2


class TestSelectorMatchesLoopedStage2:
    def _looped(self, selector: ExampleSelector) -> ExampleSelector:
        """Patch stage-2 scoring back to a per-candidate predict() loop."""
        proxy = selector.proxy

        def looped(embeddings, examples, counts, attached=None):
            queries = np.reshape(embeddings, (len(counts), -1))
            owners = np.repeat(np.arange(len(counts)), counts)
            return np.array([predict(proxy, queries[i], ex)
                             for i, ex in zip(owners, examples)])

        proxy.score_batch = looped
        return selector

    def test_select_identical_to_looped_scoring(self, monkeypatch):
        monkeypatch.setattr(selector_module, "ADAPT_EVERY", 10)
        config = SelectorConfig(pre_k=10, max_examples=4)
        fast, _ = build_selector(config=config)
        slow = self._looped(build_selector(config=config)[0])

        rng = np.random.default_rng(42)
        for _ in range(40):
            query = query_direction(int(rng.integers(0, 6)))
            query = query + rng.normal(0, 0.05, size=64)
            chosen_fast = fast.select(query)
            chosen_slow = slow.select(query)
            assert [s.example.example_id for s in chosen_fast] \
                == [s.example.example_id for s in chosen_slow]
            np.testing.assert_allclose(
                [s.utility for s in chosen_fast],
                [s.utility for s in chosen_slow], rtol=0, atol=1e-12,
            )
        assert fast.utility_threshold == slow.utility_threshold

    def test_score_batch_matches_predict(self):
        selector, cache = build_selector()
        proxy: HelpfulnessProxy = selector.proxy
        examples = cache.examples()
        query = query_direction(3)
        batch = proxy.score_batch(query, examples, [len(examples)])
        looped = [predict(proxy, query, ex) for ex in examples]
        np.testing.assert_allclose(batch, looped, rtol=0, atol=1e-12)
        assert proxy.score_batch(query, [], [0]).shape == (0,)

    def test_features_matrix_matches_per_pair(self):
        from repro.core.proxy import proxy_features

        selector, cache = build_selector()
        examples = cache.examples()
        query = query_direction(1) + 0.1
        matrix = proxy_features_matrix(query, examples, [len(examples)])
        for row, ex in zip(matrix, examples):
            np.testing.assert_allclose(
                row, proxy_features(query, ex), rtol=0, atol=1e-12
            )
