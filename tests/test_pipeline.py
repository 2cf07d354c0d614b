"""Tests for the pluggable serving-policy pipeline.

The acceptance bar of the redesign: every serving system the cluster
benchmarks compare — IC-Cache, semantic caching and RouteLLM — drives
:class:`ClusterSimulator` through the same protocols and produces a valid
:class:`ServingReport`, and the inline / batched / cluster entry points
share one pipeline implementation.
"""

import numpy as np
import pytest

from repro.baselines import RouteLLMRouter, SemanticCache
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.pipeline import (
    AdmissionPolicy,
    ICCachePipeline,
    RetrievalPolicy,
    RoutingPolicy,
    ServeMiddleware,
)
from repro.pipeline.policies import (
    ICAdmission,
    build_routellm,
    build_semantic_cache,
)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.records import ServingReport
from repro.workload.datasets import SyntheticDataset


def _config(seed):
    return ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))


def _ic_cache(config, history):
    service = ICCacheService(config)
    service.seed_cache(history)
    return service.pipeline


#: Each system the cluster benchmarks compare, built from (config, history).
SYSTEMS = {
    "ic-cache": _ic_cache,
    "semantic-cache": lambda config, history: build_semantic_cache(
        config, history=history),
    "routellm": lambda config, history: build_routellm(config),
}


def _cluster(pipeline):
    deployments = [
        ModelDeployment(model,
                        replicas=1 if name == pipeline.reference_model else 4)
        for name, model in pipeline.models.items()
    ]
    return ClusterSimulator(ClusterConfig(deployments=deployments,
                                          gpu_budget=16))


class TestSystemSweep:
    @pytest.mark.parametrize("policy", SYSTEMS)
    def test_policy_drives_cluster_end_to_end(self, policy):
        seed = 31
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        history = dataset.example_bank_requests()[:60]
        pipeline = SYSTEMS[policy](_config(seed), history)
        assert isinstance(pipeline, ICCachePipeline)
        # Every stage object conforms to its protocol, baselines included:
        # each comparison system plugs in as itself, unwrapped.
        assert isinstance(pipeline.retrieval, RetrievalPolicy)
        assert isinstance(pipeline.routing, RoutingPolicy)
        assert isinstance(pipeline.admission, AdmissionPolicy)

        sim = _cluster(pipeline)
        requests = dataset.online_requests(40)
        arrivals = [(i * 0.3, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, pipeline.route_batch,
                         on_complete=pipeline.on_complete)

        # A valid ServingReport: every request served, sane observables.
        assert isinstance(report, ServingReport)
        assert report.n == len(requests)
        assert pipeline.stats.served == len(requests)
        assert {r.model_name for r in report.records} <= set(pipeline.models)
        for record in report.records:
            assert 0.0 <= record.quality <= 1.0
            assert record.queue_wait_s >= 0.0
            assert record.finish_s >= record.start_s >= record.arrival_s
        assert 0.0 < pipeline.stats.mean_quality <= 1.0

    @pytest.mark.parametrize("policy", SYSTEMS)
    def test_policy_drives_micro_batched_run(self, policy):
        from repro.serving.engine import BatchPolicy

        seed = 33
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        pipeline = SYSTEMS[policy](
            _config(seed), dataset.example_bank_requests()[:40])
        sim = _cluster(pipeline)
        requests = dataset.online_requests(24)
        arrivals = [(i * 0.05, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, pipeline.route_batch,
                         on_complete=pipeline.on_complete,
                         policy=BatchPolicy(max_batch=8, max_wait_s=0.25))
        assert report.n == len(requests)
        assert pipeline.stats.served == len(requests)

    def test_policies_differ_in_behaviour(self):
        # The sweep is not vacuous: IC-Cache offloads with examples,
        # RouteLLM never carries context.
        seed = 35
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        history = dataset.example_bank_requests()[:80]
        online = dataset.online_requests(30)

        ic = _ic_cache(_config(seed), history)
        route = build_routellm(_config(seed))
        ic_ctxs = ic.run_batch(online, load=0.2)
        route_ctxs = route.run_batch(online, load=0.2)
        assert any(c.examples for c in ic_ctxs)
        assert all(not c.examples for c in route_ctxs)
        assert all(c.result.n_examples == 0 for c in route_ctxs)


class TestOnePipelinePath:
    def test_serve_equals_serve_batch_of_one(self):
        # Inline and batched entry points are the same execution path:
        # batch-of-1 serving is decision- and outcome-identical.
        outcomes = {}
        for mode in ("serve", "batch"):
            service = ICCacheService(_config(41))
            dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=41)
            service.seed_cache(dataset.example_bank_requests()[:80])
            requests = dataset.online_requests(15)
            if mode == "serve":
                outs = [service.serve(r, load=0.2) for r in requests]
            else:
                outs = [service.serve_batch([r], load=0.2)[0] for r in requests]
            outcomes[mode] = [(o.choice.model_name, o.result.quality,
                               o.result.n_examples) for o in outs]
        assert outcomes["serve"] == outcomes["batch"]

    def test_facades_share_one_stats_object(self):
        service = ICCacheService(_config(42))
        assert service.stats is service.pipeline.stats

    def test_middleware_hook_ordering(self):
        events = []

        class Recorder(ServeMiddleware):
            def on_batch(self, contexts):
                events.append("on_batch")

            def before_retrieve(self, contexts):
                events.append("before_retrieve")

            def after_retrieve(self, ctx):
                events.append("after_retrieve")

            def before_route(self, ctx):
                events.append("before_route")

            def after_route(self, ctx):
                events.append("after_route")

            def after_complete(self, ctx):
                events.append("after_complete")

        service = ICCacheService(_config(43))
        service.pipeline.middlewares.append(Recorder())
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=43)
        service.serve(dataset.online_requests(1)[0])
        assert events == ["on_batch", "before_retrieve", "after_retrieve",
                          "before_route", "after_route", "after_complete"]

    def test_retrieval_length_mismatch_is_a_failure(self):
        service = ICCacheService(_config(44))

        class Short:
            def retrieve_batch(self, contexts):
                return []   # wrong length

        service.pipeline.retrieval = Short()
        outcome = service.serve(SyntheticDataset(
            "ms_marco", scale=0.0005, seed=44).online_requests(1)[0])
        assert outcome.bypassed   # funnelled through the section-5 bypass


class TestStageSwap:
    def test_assigned_routing_serves_and_flags_stay_live(self):
        # A stage is swapped by assigning the attribute; the service's
        # selector_enabled / router_enabled setters keep acting on its own
        # stages (the Fig. 16/20 ablation pattern).
        service = ICCacheService(_config(51))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=51)
        service.seed_cache(dataset.example_bank_requests()[:60])
        pipeline = service.pipeline
        pipeline.routing = RouteLLMRouter(service.small_name,
                                          service.large_name, seed=51)
        ctxs = pipeline.run_batch(dataset.online_requests(10), load=0.1)
        assert len(ctxs) == 10
        assert {c.choice.model_name for c in ctxs} <= set(pipeline.models)
        # RouteLLM never solicits bandit feedback.
        assert pipeline.stats.router_updates == 0

        pipeline.routing = service._ic_routing
        service.selector_enabled = False
        service.router_enabled = False
        assert not service._ic_retrieval.enabled
        assert not service._ic_routing.enabled
        ctxs = pipeline.run_batch(dataset.online_requests(8), load=0.2)
        assert all(not c.examples for c in ctxs)
        assert all(c.choice.model_name == service.small_name for c in ctxs)


class TestStatsRunningMean:
    def test_mean_quality_is_running_mean(self):
        from repro.pipeline.stats import ServiceStats

        stats = ServiceStats()
        assert stats.mean_quality == 0.0
        for q in (0.2, 0.4, 0.9):
            stats.record_quality(q)
        assert stats.mean_quality == pytest.approx(np.mean([0.2, 0.4, 0.9]))
        assert stats.quality_count == 3
        # The unbounded per-request list is gone.
        assert not hasattr(stats, "qualities")

    def test_service_tracks_mean_quality(self):
        service = ICCacheService(_config(54))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=54)
        outcomes = [service.serve(r) for r in dataset.online_requests(8)]
        expected = np.mean([o.result.quality for o in outcomes])
        assert service.stats.mean_quality == pytest.approx(expected)
        assert service.stats.quality_count == 8


class TestSemanticCachePolicy:
    def test_hits_become_in_context_examples(self):
        seed = 55
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        pipeline = build_semantic_cache(
            _config(seed), history=dataset.example_bank_requests()[:120],
            similarity_threshold=0.85)
        # One object serves all three stages.
        assert isinstance(pipeline.retrieval, SemanticCache)
        assert pipeline.routing is pipeline.retrieval is pipeline.admission
        ctxs = pipeline.run_batch(dataset.online_requests(40))
        hits = [c for c in ctxs if c.examples]
        misses = [c for c in ctxs if not c.examples]
        assert hits, "warm cache at a relaxed threshold should produce hits"
        for ctx in hits:
            assert ctx.choice.model_name != pipeline.reference_model
            assert ctx.result.n_examples == 1
        for ctx in misses:
            assert ctx.choice.model_name == pipeline.reference_model

    def test_completed_requests_are_inserted(self):
        seed = 56
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        pipeline = build_semantic_cache(_config(seed))
        cache = pipeline.retrieval
        assert len(cache) == 0
        pipeline.run_batch(dataset.online_requests(5))
        assert len(cache) == 5

    def test_hits_are_not_reinserted(self):
        # Only misses (fresh large-model responses) enter the cache; a hit
        # served by the small model must not ratchet cache quality down.
        seed = 58
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
        pipeline = build_semantic_cache(
            _config(seed), history=dataset.example_bank_requests()[:120],
            similarity_threshold=0.85)
        cache = pipeline.retrieval
        warm = len(cache)
        ctxs = pipeline.run_batch(dataset.online_requests(40))
        misses = sum(1 for c in ctxs if not c.examples)
        assert misses < len(ctxs)   # the scenario really produced hits
        assert len(cache) == warm + misses


class TestICAdmissionParity:
    def test_admission_policy_matches_manager_admit(self):
        service = ICCacheService(_config(57))
        assert isinstance(service.pipeline.admission, ICAdmission)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=57)
        outcome = service.serve(dataset.online_requests(1)[0])
        assert outcome.admitted_example is not None
        assert outcome.admitted_example in list(service.cache)
