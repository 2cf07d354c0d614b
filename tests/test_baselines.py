"""Unit tests for the baseline systems."""

import numpy as np
import pytest

from repro.baselines.rag import LongRAGRetriever, build_document_store
from repro.baselines.routellm import RouteLLMRouter
from repro.baselines.semantic_cache import SemanticCache, reused_quality
from repro.baselines.sft import SFTModel
from repro.llm.zoo import get_model
from repro.workload.topics import TopicModel

from tests.conftest import make_request
from tests.test_core_cache import make_example


class TestRouteLLM:
    def test_easy_requests_to_small(self):
        router = RouteLLMRouter("small", "large", threshold=0.5,
                                classifier_noise=0.0)
        choices = [
            router.route(make_request(request_id=f"e{i}", difficulty=0.1))
            for i in range(30)
        ]
        assert choices.count("small") > 25

    def test_hard_requests_to_large(self):
        router = RouteLLMRouter("small", "large", threshold=0.5,
                                classifier_noise=0.0)
        choices = [
            router.route(make_request(request_id=f"h{i}", difficulty=0.9))
            for i in range(30)
        ]
        assert choices.count("large") > 25

    def test_threshold_controls_offload_fraction(self):
        permissive = RouteLLMRouter("s", "l", threshold=0.1, seed=1)
        strict = RouteLLMRouter("s", "l", threshold=0.9, seed=1)
        reqs = [make_request(request_id=f"r{i}", difficulty=0.5)
                for i in range(100)]
        frac_permissive = sum(permissive.route(r) == "s" for r in reqs) / 100
        frac_strict = sum(strict.route(r) == "s" for r in reqs) / 100
        assert frac_permissive > frac_strict

    def test_load_is_ignored(self):
        router = RouteLLMRouter("s", "l", classifier_noise=0.0)
        req = make_request(difficulty=0.1)
        assert router.route(req, load=0.0) == router.route(req, load=100.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RouteLLMRouter("s", "l", threshold=1.5)


class TestSemanticCache:
    def test_miss_on_empty(self):
        cache = SemanticCache(dim=64)
        lookup = cache.lookup(make_request(), np.eye(64)[0])
        assert not lookup.hit
        assert cache.hit_rate == 0.0

    def test_hit_on_similar_request(self):
        cache = SemanticCache(dim=64, similarity_threshold=0.9)
        req = make_request(request_id="orig")
        emb = req.latent
        cache.put(req, emb, response_quality=0.8)
        lookup = cache.lookup(make_request(request_id="new"), emb)
        assert lookup.hit
        assert lookup.source_request_id == "orig"

    def test_threshold_gates_hits(self):
        cache = SemanticCache(dim=64, similarity_threshold=0.99)
        req = make_request()
        cache.put(req, req.latent, 0.8)
        near = req.latent + 0.3 * np.eye(64)[1]
        near = near / np.linalg.norm(near)
        lookup = cache.lookup(make_request(request_id="x"), near)
        assert not lookup.hit

    def test_reused_quality_degrades_with_distance(self):
        assert reused_quality(0.8, 1.0) == pytest.approx(0.8)
        assert reused_quality(0.8, 0.9) < 0.8
        assert reused_quality(0.8, 0.5) < reused_quality(0.8, 0.9)

    def test_reused_quality_validates(self):
        with pytest.raises(ValueError):
            reused_quality(1.2, 0.9)

    def test_put_idempotent_per_request(self):
        cache = SemanticCache(dim=64)
        req = make_request()
        cache.put(req, req.latent, 0.8)
        cache.put(req, req.latent, 0.9)
        assert len(cache) == 1

    def test_hit_rate_accounting(self):
        cache = SemanticCache(dim=64, similarity_threshold=0.9)
        req = make_request()
        cache.put(req, req.latent, 0.8)
        cache.lookup(make_request(request_id="a"), req.latent)      # hit
        orthogonal = np.eye(64)[5]
        cache.lookup(make_request(request_id="b"), orthogonal)      # miss
        assert cache.hit_rate == pytest.approx(0.5)


class TestLongRAG:
    def setup_method(self):
        self.topics = TopicModel(n_topics=12, dim=64, seed=3)
        docs, index = build_document_store(self.topics, docs_per_topic=3, seed=3)
        self.retriever = LongRAGRetriever(docs, index, top_k=5)

    def test_retrieves_on_topic_documents(self):
        rng = np.random.default_rng(0)
        latent = self.topics.sample_latent(4, rng)
        docs = self.retriever.retrieve(latent)
        assert len(docs) == 5
        assert any(d.topic_id == 4 for d in docs)

    def test_relevant_documents_boost(self):
        rng = np.random.default_rng(1)
        latent = self.topics.sample_latent(2, rng)
        docs = self.retriever.retrieve(latent)
        assert self.retriever.boost(latent, docs) > 0.0

    def test_rag_boost_below_icl_ceiling(self):
        # Table 2's ordering requires RAG's ceiling < ICL's transfer ceiling.
        from repro.baselines.rag import RAG_MAX_BOOST
        from repro.llm.icl import MAX_BOOST
        assert RAG_MAX_BOOST < MAX_BOOST

    def test_irrelevant_documents_distract(self):
        rng = np.random.default_rng(2)
        latent = self.topics.sample_latent(1, rng)
        off_topic = [d for d in self.retriever.retrieve(-latent)]
        assert self.retriever.boost(latent, off_topic) <= 0.0

    def test_no_documents_no_boost(self):
        assert self.retriever.boost(np.ones(64), []) == 0.0

    def test_prompt_tokens_sum(self):
        rng = np.random.default_rng(3)
        docs = self.retriever.retrieve(self.topics.sample_latent(0, rng))
        assert self.retriever.prompt_tokens(docs) == sum(d.tokens for d in docs)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            SFTModel(get_model("gemma-2-2b"), "nq", in_domain_lift=-0.1)
