"""Unit tests for the baseline systems."""

import math

import numpy as np
import pytest

from repro.baselines import routellm
from repro.baselines.rag import LongRAGRetriever, build_document_store
from repro.baselines.routellm import RouteLLMRouter
from repro.baselines.semantic_cache import SemanticCache, reused_quality
from repro.baselines.sft import IN_DOMAIN_LIFT, SFTModel
from repro.core.selector import ScoredExample
from repro.embedding.similarity import cosine_similarity
from repro.llm.icl import ExampleView
from repro.llm.model import GenerationResult
from repro.llm.zoo import get_model
from repro.pipeline import ServeContext
from repro.workload.topics import TopicModel

from tests.conftest import make_request
from tests.test_core_cache import make_example


def _route(router, request, **ctx_fields):
    return router.route(ServeContext(request, **ctx_fields)).model_name


@pytest.fixture
def noiseless(monkeypatch):
    """A RouteLLM classifier that makes no error."""
    monkeypatch.setattr(routellm, "CLASSIFIER_NOISE", 0.0)


class TestRouteLLM:
    def test_easy_requests_to_small(self, noiseless):
        router = RouteLLMRouter("small", "large", threshold=0.5)
        choices = [
            _route(router, make_request(request_id=f"e{i}", difficulty=0.1))
            for i in range(30)
        ]
        assert choices.count("small") > 25

    def test_hard_requests_to_large(self, noiseless):
        router = RouteLLMRouter("small", "large", threshold=0.5)
        choices = [
            _route(router, make_request(request_id=f"h{i}", difficulty=0.9))
            for i in range(30)
        ]
        assert choices.count("large") > 25

    def test_threshold_controls_offload_fraction(self):
        permissive = RouteLLMRouter("s", "l", threshold=0.1, seed=1)
        strict = RouteLLMRouter("s", "l", threshold=0.9, seed=1)
        reqs = [make_request(request_id=f"r{i}", difficulty=0.5)
                for i in range(100)]
        frac_permissive = sum(_route(permissive, r) == "s" for r in reqs) / 100
        frac_strict = sum(_route(strict, r) == "s" for r in reqs) / 100
        assert frac_permissive > frac_strict

    def test_load_is_ignored(self, noiseless):
        router = RouteLLMRouter("s", "l")
        req = make_request(difficulty=0.1)
        assert _route(router, req, load=0.0) == _route(router, req, load=100.0)

    def test_choice_is_context_blind_and_carries_no_bandit_state(
            self, noiseless):
        router = RouteLLMRouter("s", "l")
        req = make_request(difficulty=0.1)
        scored = ScoredExample(example=make_example(), relevance=0.9,
                               utility=0.4)
        bare = router.route(ServeContext(req))
        with_context = router.route(ServeContext(req, examples=[scored]))
        assert with_context.model_name == bare.model_name == "s"
        np.testing.assert_array_equal(with_context.features, bare.features)
        assert bare.mean_scores == bare.biased_scores == {}
        assert not bare.solicit_feedback

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RouteLLMRouter("s", "l", threshold=1.5)


def _cache(threshold=0.92):
    return SemanticCache("small", "large", dim=64,
                         similarity_threshold=threshold)


def _probe(cache, request, embedding):
    """The one combination ``retrieve_batch`` returns for ``request``."""
    [combo] = cache.retrieve_batch([ServeContext(request,
                                                 embedding=embedding)])
    return combo


class TestSemanticCache:
    def test_miss_on_empty(self):
        cache = _cache()
        assert _probe(cache, make_request(), np.eye(64)[0]) == []
        assert cache.hit_rate == 0.0

    def test_hit_on_similar_request(self):
        cache = _cache(threshold=0.9)
        req = make_request(request_id="orig")
        emb = req.latent
        cache.put(req, emb, response_quality=0.8, tokens=70)
        [hit] = _probe(cache, make_request(request_id="new"), emb)
        assert hit.example.example_id == "orig"
        assert hit.relevance == pytest.approx(1.0)
        assert hit.utility == 0.8
        view = hit.example.view()
        assert isinstance(view, ExampleView)
        assert view.quality == 0.8 and view.tokens == 70
        np.testing.assert_array_equal(view.latent, req.latent)

    def test_threshold_gates_hits(self):
        cache = _cache(threshold=0.99)
        req = make_request()
        cache.put(req, req.latent, 0.8, tokens=70)
        near = req.latent + 0.3 * np.eye(64)[1]
        near = near / np.linalg.norm(near)
        assert _probe(cache, make_request(request_id="x"), near) == []

    def test_verbatim_reuse_degrades_with_latent_distance(self):
        cache = _cache(threshold=0.0)
        req = make_request(request_id="orig")
        cache.put(req, req.latent, 0.8, tokens=70)
        [hit] = _probe(cache, req, req.latent)
        assert hit.example.reused_quality(req) == pytest.approx(0.8)
        other = make_request(request_id="other",
                             topic_latent=np.eye(64)[0] + np.eye(64)[1])
        expected = reused_quality(
            0.8, cosine_similarity(other.latent, req.latent))
        assert hit.example.reused_quality(other) == expected < 0.8

    def test_reused_quality_degrades_with_distance(self):
        assert reused_quality(0.8, 1.0) == pytest.approx(0.8)
        assert reused_quality(0.8, 0.9) < 0.8
        assert reused_quality(0.8, 0.5) < reused_quality(0.8, 0.9)

    def test_reused_quality_validates(self):
        with pytest.raises(ValueError):
            reused_quality(1.2, 0.9)

    def test_put_idempotent_per_request(self):
        cache = _cache()
        req = make_request()
        cache.put(req, req.latent, 0.8, tokens=70)
        cache.put(req, req.latent, 0.9, tokens=90)
        assert len(cache) == 1
        [hit] = _probe(cache, req, req.latent)
        assert (hit.utility, hit.example.tokens) == (0.8, 70)

    def test_refused_vector_leaves_no_half_entry(self):
        # The index refuses a zero vector; the request must stay uncached
        # so a retry with a good embedding is inserted and can hit.
        cache = _cache()
        req = make_request()
        with pytest.raises(ValueError):
            cache.put(req, np.zeros(64), 0.5, tokens=10)
        assert len(cache) == 0 and len(cache._index) == 0
        cache.put(req, req.latent, 0.5, tokens=10)
        [hit] = _probe(cache, make_request(request_id="again"), req.latent)
        assert hit.example.example_id == req.request_id

    @pytest.mark.parametrize("quality", [math.nan, -0.1, 1.5])
    def test_put_refuses_quality_outside_unit_interval(self, quality):
        cache = _cache()
        req = make_request()
        with pytest.raises(ValueError, match="response_quality"):
            cache.put(req, req.latent, quality, tokens=10)
        assert len(cache) == 0 and len(cache._index) == 0

    def test_hit_rate_accounting(self):
        cache = _cache(threshold=0.9)
        req = make_request()
        cache.put(req, req.latent, 0.8, tokens=70)
        _probe(cache, make_request(request_id="a"), req.latent)     # hit
        orthogonal = np.eye(64)[5]
        _probe(cache, make_request(request_id="b"), orthogonal)     # miss
        assert cache.hit_rate == pytest.approx(0.5)

    def test_route_hit_to_small_miss_to_large(self):
        cache = _cache()
        req = make_request()
        scored = ScoredExample(example=make_example(), relevance=0.95,
                               utility=0.8)
        hit = cache.route(ServeContext(req, examples=[scored]))
        miss = cache.route(ServeContext(req))
        assert (hit.model_name, miss.model_name) == ("small", "large")
        assert hit.mean_scores == {} and not hit.solicit_feedback

    def test_admit_inserts_misses_with_simulated_length(self):
        cache = _cache(threshold=0.9)
        req = make_request(request_id="m")
        req.prompt_tokens = 30
        result = GenerationResult(
            model_name="large", quality=0.7, prompt_tokens=30,
            output_tokens=45, ttft_s=0.0, decode_s=0.0, icl_boost=0.0,
            n_examples=0, cost=0.0, text="short placeholder")
        miss = ServeContext(req, embedding=req.latent, result=result)
        assert cache.admit(miss) is None
        [entry] = _probe(cache, req, req.latent)
        assert entry.example.tokens == 30 + 45
        # A hit was served from an entry; it is not inserted again.
        other = make_request(request_id="h")
        cache.admit(ServeContext(other, embedding=np.eye(64)[3],
                                 examples=[entry], result=result))
        assert len(cache) == 1


class TestLongRAG:
    def setup_method(self):
        self.topics = TopicModel(n_topics=12, dim=64, seed=3)
        docs, index = build_document_store(self.topics, docs_per_topic=3, seed=3)
        self.retriever = LongRAGRetriever(docs, index, top_k=5)

    def _retrieve(self, latent):
        [combo] = self.retriever.retrieve_batch(
            [ServeContext(make_request(topic_latent=latent))])
        return combo

    def test_retrieves_on_topic_documents(self):
        rng = np.random.default_rng(0)
        latent = self.topics.sample_latent(4, rng)
        combo = self._retrieve(latent)
        assert len(combo) == 5
        assert any(s.example.topic_id == 4 for s in combo)

    def test_relevant_documents_boost(self):
        rng = np.random.default_rng(1)
        latent = self.topics.sample_latent(2, rng)
        assert self.retriever.boost(self._retrieve(latent)) > 0.0

    def test_rag_boost_below_icl_ceiling(self):
        # Table 2's ordering requires RAG's ceiling < ICL's transfer ceiling.
        from repro.baselines.rag import RAG_MAX_BOOST
        from repro.llm.icl import MAX_BOOST
        assert RAG_MAX_BOOST < MAX_BOOST

    def test_irrelevant_documents_distract(self):
        rng = np.random.default_rng(2)
        latent = self.topics.sample_latent(1, rng)
        off_topic = [
            ScoredExample(example=s.example,
                          relevance=cosine_similarity(latent,
                                                      s.example.latent),
                          utility=s.utility)
            for s in self._retrieve(-latent)
        ]
        assert self.retriever.boost(off_topic) <= 0.0

    def test_no_documents_no_boost(self):
        assert self.retriever.boost([]) == 0.0

    def test_retrieve_batch_scores_documents_as_context(self):
        rng = np.random.default_rng(3)
        latents = [self.topics.sample_latent(t, rng) for t in (0, 5)]
        requests = [make_request(request_id=f"r{i}", topic_latent=latent)
                    for i, latent in enumerate(latents)]
        combos = self.retriever.retrieve_batch(
            [ServeContext(r) for r in requests])
        assert len(combos) == 2
        for latent, combo in zip(latents, combos):
            assert combo == self._retrieve(latent)   # one request at a time
            for scored in combo:
                doc = scored.example
                assert doc.example_id == doc.doc_id
                assert scored.relevance == cosine_similarity(latent,
                                                             doc.latent)
                assert scored.utility == doc.quality
                view = doc.view()
                assert (view.quality, view.tokens) == (doc.quality,
                                                       doc.tokens)
                assert view.latent is doc.latent


class TestSFT:
    def test_in_domain_lift(self):
        base = get_model("gemma-2-2b")
        sft = SFTModel(base, tuned_dataset="unit_test")
        req = make_request(dataset="unit_test")
        assert sft.base_quality(req) > base.base_quality(req)

    def test_out_of_domain_regression(self):
        # Averaged over requests: a single request can clip at 0 quality,
        # masking the shift, so compare means.
        base = get_model("gemma-2-2b")
        sft = SFTModel(base, tuned_dataset="natural_questions")
        reqs = [make_request(request_id=f"ood-{i}", dataset="alpaca",
                             difficulty=0.4)
                for i in range(20)]
        base_mean = np.mean([base.base_quality(r) for r in reqs])
        sft_mean = np.mean([sft.base_quality(r) for r in reqs])
        assert sft_mean < base_mean

    def test_generate_applies_shift(self):
        base = get_model("gemma-2-2b", seed=42)
        base2 = get_model("gemma-2-2b", seed=42)
        sft = SFTModel(base2, tuned_dataset="unit_test")
        req = make_request(dataset="unit_test", difficulty=0.7)
        plain = np.mean([base.generate(req).quality for _ in range(10)])
        tuned = np.mean([sft.generate(req).quality for _ in range(10)])
        assert tuned > plain

    def test_name_and_spec_passthrough(self):
        base = get_model("gemma-2-2b")
        sft = SFTModel(base, tuned_dataset="nq")
        assert "sft" in sft.name
        assert sft.spec is base.spec

    def test_generate_reports_the_boost_its_quality_used(self):
        # The quality is the base model's draw plus the fine-tuning shift,
        # so the boost it used is the base model's.
        base = get_model("gemma-2-2b", seed=7)
        sft = SFTModel(get_model("gemma-2-2b", seed=7),
                       tuned_dataset="unit_test")
        req = make_request(dataset="unit_test", difficulty=0.3)
        views = [ExampleView(latent=req.latent, quality=0.7, tokens=40)]
        plain = base.generate(req, views)
        tuned = sft.generate(req, views)
        assert plain.icl_boost > 0.0
        assert tuned.icl_boost == plain.icl_boost
        assert tuned.quality == pytest.approx(
            min(1.0, plain.quality + IN_DOMAIN_LIFT))
