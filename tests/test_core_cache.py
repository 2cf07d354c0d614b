"""Unit tests for Example and ExampleCache."""

import numpy as np
import pytest

from repro.core.cache import ExampleCache
from repro.core.example import Example
from tests import state_json
from tests.conftest import make_request


def make_example(example_id="ex-0", quality=0.8, dim=64, direction=0,
                 text="historical request text"):
    emb = np.zeros(dim)
    emb[direction % dim] = 1.0
    request = make_request(request_id=f"req-{example_id}", topic_latent=emb,
                           text=text)
    return Example(
        example_id=example_id,
        request=request,
        response_text="historical response " + "w " * 20,
        embedding=emb,
        quality=quality,
        source_model="gemma-2-27b",
        source_cost=1.0,
    )


class TestExample:
    def test_quality_validated(self):
        with pytest.raises(ValueError):
            make_example(quality=1.5)

    def test_tokens_cover_request_and_response(self):
        ex = make_example()
        assert ex.tokens > 0
        assert ex.tokens >= ex.request.prompt_tokens

    def test_plaintext_bytes(self):
        ex = make_example()
        expected = (len(ex.request.text.encode()) +
                    len(ex.response_text.encode()))
        assert ex.plaintext_bytes == expected

    def test_view_carries_latent_and_quality(self):
        ex = make_example(quality=0.7)
        view = ex.view()
        assert view.quality == 0.7
        assert np.allclose(view.latent, ex.request.latent)
        assert view.tokens == ex.tokens

    def test_record_access(self):
        ex = make_example()
        ex.record_access()
        ex.record_access()
        assert ex.access_count == 2


class TestExampleCache:
    def test_add_get_len(self):
        cache = ExampleCache(dim=64)
        ex = make_example()
        cache.add(ex)
        assert len(cache) == 1
        assert cache.get("ex-0") is ex
        assert "ex-0" in cache

    def test_duplicate_id_rejected(self):
        cache = ExampleCache(dim=64)
        cache.add(make_example())
        with pytest.raises(KeyError):
            cache.add(make_example())

    def test_remove(self):
        cache = ExampleCache(dim=64)
        cache.add(make_example())
        removed = cache.remove("ex-0")
        assert removed.example_id == "ex-0"
        assert len(cache) == 0
        with pytest.raises(KeyError):
            cache.remove("ex-0")

    def test_search_returns_most_relevant(self):
        cache = ExampleCache(dim=64)
        for i in range(5):
            cache.add(make_example(example_id=f"ex-{i}", direction=i))
        query = np.zeros(64)
        query[2] = 1.0
        results = cache.search(query, k=1)
        assert results[0][0].example_id == "ex-2"
        assert results[0][1] == pytest.approx(1.0)

    def test_nearest_similarity_empty_cache(self):
        cache = ExampleCache(dim=64)
        assert cache.nearest_similarity(np.ones(64)) == 0.0

    def test_total_bytes_accumulates(self):
        cache = ExampleCache(dim=64)
        exs = [make_example(example_id=f"ex-{i}", direction=i) for i in range(3)]
        for ex in exs:
            cache.add(ex)
        assert cache.total_bytes == sum(e.plaintext_bytes for e in exs)

    def test_total_bytes_counter_tracks_removal(self):
        # total_bytes is a maintained running counter, not an O(N) sum; it
        # must stay exact through interleaved adds and removals.
        cache = ExampleCache(dim=64)
        for i in range(4):
            cache.add(make_example(example_id=f"ex-{i}", direction=i,
                                   text="x " * (10 * (i + 1))))
        cache.remove("ex-1")
        cache.remove("ex-3")
        assert cache.total_bytes == sum(e.plaintext_bytes for e in cache)

    def test_total_bytes_exact_immediately_after_in_place_mutation(self):
        # Replay refinement rewrites response_text in place: the rebind
        # itself moves the total (the table's byte column is the ledger),
        # cached or not, and a later remove takes out the current size.
        cache = ExampleCache(dim=64)
        for i in range(3):
            cache.add(make_example(example_id=f"ex-{i}", direction=i))
        before = cache.total_bytes
        example = cache.get("ex-0")
        old_size = example.plaintext_bytes
        example.response_text = "a much longer refined response " * 8
        assert cache.total_bytes == before - old_size + example.plaintext_bytes
        assert cache.total_bytes == sum(e.plaintext_bytes for e in cache)
        removed = cache.remove("ex-0")
        assert cache.total_bytes == sum(e.plaintext_bytes for e in cache)
        removed.response_text = "short"     # no longer this cache's bytes
        assert cache.total_bytes == sum(e.plaintext_bytes for e in cache)
        cache.get("ex-1").request = make_request(request_id="r", text="new")
        assert cache.total_bytes == sum(e.plaintext_bytes for e in cache) \
            == int(cache.table.col("plaintext_bytes").sum())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("trained", [False, True])
    @pytest.mark.parametrize(
        "embedding", [np.zeros(8), np.ones(9), np.full(8, np.nan),
                      np.r_[np.inf, np.ones(7)], np.full(8, 1e200)],
        ids=["zero-vector", "wrong-dim", "nan-vector", "inf-component",
             "norm-overflows"])
    def test_rejected_add_changes_nothing(self, embedding, trained):
        """An embedding the index refuses is refused before the first
        mutation: id map, byte total, iteration, table and index are as
        they were, and the cache keeps working.  A norm that is NaN or
        infinite is refused like a zero one (``norm < eps`` alone let a NaN
        embedding in, and k-means++ seeding failed on it later).  The rule
        holds for the flat block of an untrained index and for the cluster
        blocks of a trained one."""
        cache = ExampleCache(dim=8)
        for i in range(3):
            cache.add(make_example(example_id=f"ex-{i}", dim=8, direction=i))
        if trained:
            rng = np.random.default_rng(8)
            for i in range(64):
                cache.add(Example(f"fill-{i}", make_request(dim=8), "filler",
                                  rng.normal(size=8), quality=0.8,
                                  source_model="gemma-2-27b",
                                  source_cost=1.0))
            cache.search(np.ones(8), k=1)       # the lazy first training
        assert cache._index.is_trained == trained

        def state():
            return (len(cache), cache.total_bytes, len(cache.table),
                    [e.example_id for e in cache],
                    [cache.table.owner(r).example_id
                     for r in range(len(cache.table))],
                    state_json.dumps(cache._index.to_state()))

        before = state()
        bad = Example("bad", make_request(dim=8), "a response", embedding,
                      quality=0.8, source_model="gemma-2-27b",
                      source_cost=1.0)
        with pytest.raises(ValueError):
            cache.add(bad)
        assert "bad" not in cache and state() == before
        with pytest.raises(KeyError):
            cache.remove("bad")

        with pytest.raises(KeyError):       # a cached id is refused
            cache.add(make_example(example_id="ex-1", dim=8, direction=5))
        assert state() == before
        elsewhere = ExampleCache(dim=8)     # another cache's row is refused
        taken = make_example(example_id="ex-9", dim=8, direction=5)
        elsewhere.add(taken)
        with pytest.raises(ValueError):
            cache.add(taken)
        assert state() == before and taken in list(elsewhere)
        query = np.zeros(8)
        query[1] = 1.0
        assert cache.search(query, k=1)[0][0] is cache.get("ex-1")
        assert cache.remove("ex-1").example_id == "ex-1"

    def test_iteration(self):
        cache = ExampleCache(dim=64)
        for i in range(4):
            cache.add(make_example(example_id=f"ex-{i}", direction=i))
        assert {e.example_id for e in cache} == {f"ex-{i}" for i in range(4)}

    def test_matching_cost_small_pool_is_linear(self):
        cache = ExampleCache(dim=64)
        for i in range(10):
            cache.add(make_example(example_id=f"ex-{i}", direction=i))
        assert cache.matching_cost() == pytest.approx(10.0)
