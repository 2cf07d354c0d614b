"""Integration tests for ICCacheService and ICCacheClient."""

import pytest

from repro.core.client import ICCacheClient
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService, ServeOutcome
from repro.judge import evaluate_pairwise
from repro.llm.zoo import get_model
from repro.pipeline.stats import ServiceStats
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.datasets import SyntheticDataset

from tests.conftest import make_request


@pytest.fixture(scope="module")
def seeded_service():
    config = ICCacheConfig(seed=11, manager=ManagerConfig(sanitize=False))
    service = ICCacheService(config)
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=11)
    service.seed_cache(dataset.example_bank_requests()[:200])
    return service, dataset


def _small_service(seed):
    service = ICCacheService(ICCacheConfig(
        seed=seed, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:50])
    return service, dataset


class TestPublicSurface:
    def test_core_package_exports(self):
        import repro
        import repro.core as core

        for name in ("ICCacheService", "ServeOutcome", "ICCacheClient",
                     "ICCacheConfig"):
            assert hasattr(core, name), name
        assert repro.ICCacheService is ICCacheService

    def test_serve_outcome_fields(self):
        fields = {f.name for f in ServeOutcome.__dataclass_fields__.values()}
        assert {"request", "result", "choice", "examples",
                "admitted_example", "bypassed"} <= fields
        assert isinstance(ServeOutcome.offloaded, property)

    def test_stats_surface(self):
        stats = ServiceStats()
        for counter in ("served", "offloaded", "bypasses",
                        "router_updates", "proxy_updates"):
            assert getattr(stats, counter) == 0
        assert stats.offload_ratio == 0.0
        assert stats.mean_quality == 0.0


class TestFacadeCallSites:
    """``serve`` / ``serve_batch`` / ``cluster_router`` / ``on_complete``
    are thin facades over the pipeline; benchmarks and examples call them
    exactly like this."""

    def test_serve_returns_serve_outcome(self):
        service, dataset = _small_service(seed=71)
        outcome = service.serve(dataset.online_requests(1)[0], load=0.2)
        assert isinstance(outcome, ServeOutcome)
        assert outcome.result.model_name == outcome.choice.model_name
        assert isinstance(outcome.offloaded, bool)

    def test_serve_positional_load_still_accepted(self):
        service, dataset = _small_service(seed=72)
        outcome = service.serve(dataset.online_requests(1)[0], 0.2)
        assert isinstance(outcome, ServeOutcome)

    def test_serve_batch_returns_outcome_list(self):
        service, dataset = _small_service(seed=73)
        outcomes = service.serve_batch(dataset.online_requests(4), load=0.2)
        assert len(outcomes) == 4
        assert all(isinstance(o, ServeOutcome) for o in outcomes)

    def test_cluster_router_contract(self):
        # The returned callable has the RouterFn shape and pairs with
        # service.on_complete.
        service, dataset = _small_service(seed=74)
        sim = ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(service.models[service.small_name], replicas=4),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ],
            gpu_budget=16,
        ))
        requests = dataset.online_requests(20)
        arrivals = [(i * 0.4, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, service.cluster_router(),
                         on_complete=service.on_complete)
        assert report.n == 20
        assert service.stats.served == 20

    def test_ablation_flags_toggle_mid_run(self):
        # The Fig. 16/20 ablations flip these after construction; the
        # flags must keep taking effect on the next request.
        service, dataset = _small_service(seed=76)
        service.selector_enabled = False
        service.router_enabled = False
        outcomes = [service.serve(r, load=0.2)
                    for r in dataset.online_requests(10)]
        assert all(o.result.n_examples == 0 for o in outcomes)
        assert all(o.choice.model_name == service.small_name for o in outcomes)

        service.selector_enabled = True
        service.router_enabled = True
        outcomes = [service.serve(r, load=0.0)
                    for r in dataset.online_requests(30)]
        assert any(o.examples for o in outcomes)
        assert any(o.choice.model_name == service.large_name for o in outcomes)

    def test_stats_attribute_is_live(self):
        service, dataset = _small_service(seed=75)
        before = service.stats.served
        service.serve(dataset.online_requests(1)[0])
        assert service.stats.served == before + 1
        assert 0.0 < service.stats.mean_quality <= 1.0


class TestSeeding:
    def test_seed_cache_populates(self, seeded_service):
        service, _ = seeded_service
        assert len(service.cache) > 100

    def test_seeded_examples_come_from_large_model(self, seeded_service):
        service, _ = seeded_service
        sources = {ex.source_model for ex in service.cache}
        assert sources == {service.large_name}


class TestServe:
    def test_serve_round_trip(self, seeded_service):
        service, dataset = seeded_service
        request = dataset.online_requests(1)[0]
        outcome = service.serve(request, load=0.2)
        assert 0.0 <= outcome.result.quality <= 1.0
        assert outcome.choice.model_name in service.models
        assert outcome.result.model_name == outcome.choice.model_name

    def test_offloaded_requests_carry_examples(self, seeded_service):
        service, dataset = seeded_service
        outcomes = [service.serve(r, load=0.2)
                    for r in dataset.online_requests(50)]
        offloaded = [o for o in outcomes if o.offloaded]
        assert offloaded, "router should offload some requests"
        assert any(o.result.n_examples > 0 for o in offloaded)

    def test_large_model_served_without_examples(self, seeded_service):
        service, dataset = seeded_service
        outcomes = [service.serve(r, load=0.0)
                    for r in dataset.online_requests(80)]
        for outcome in outcomes:
            if not outcome.offloaded:
                assert outcome.result.n_examples == 0

    def test_stats_track_serving(self, seeded_service):
        service, dataset = seeded_service
        before = service.stats.served
        service.serve(dataset.online_requests(1)[0], load=0.1)
        assert service.stats.served == before + 1

    def test_served_requests_admitted_to_cache(self):
        config = ICCacheConfig(seed=5, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        before = len(service.cache)
        service.serve(make_request(request_id="fresh"), load=0.1)
        assert len(service.cache) == before + 1


class TestServeBatch:
    def test_serve_batch_matches_request_count_and_stats(self):
        config = ICCacheConfig(seed=21, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=21)
        service.seed_cache(dataset.example_bank_requests()[:100])
        requests = dataset.online_requests(24)
        outcomes = service.serve_batch(requests, load=0.2)
        assert len(outcomes) == 24
        assert service.stats.served == 24
        assert [o.request.request_id for o in outcomes] == \
            [r.request_id for r in requests]

    def test_serve_batch_empty(self):
        service = ICCacheService(ICCacheConfig(
            seed=22, manager=ManagerConfig(sanitize=False)))
        assert service.serve_batch([]) == []

    def test_serve_batch_offloaded_requests_carry_examples(self):
        config = ICCacheConfig(seed=23, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=23)
        service.seed_cache(dataset.example_bank_requests()[:150])
        outcomes = service.serve_batch(dataset.online_requests(60), load=0.2)
        offloaded = [o for o in outcomes if o.offloaded]
        assert offloaded, "router should offload some of the batch"
        assert any(o.result.n_examples > 0 for o in offloaded)
        for o in outcomes:
            if not o.offloaded:
                assert o.result.n_examples == 0

    def test_serve_batch_retrieval_failure_bypasses_whole_batch(self):
        config = ICCacheConfig(seed=24, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)

        def broken_select_batch(embeddings):
            raise RuntimeError("retriever shard down")

        service.selector.select_batch = broken_select_batch
        outcomes = service.serve_batch([make_request(request_id=f"b{i}")
                                        for i in range(3)])
        assert all(o.bypassed for o in outcomes)
        assert all(o.choice.model_name == service.large_name for o in outcomes)
        assert service.stats.bypasses == 3

    def test_serve_batch_with_sharded_cache(self):
        config = ICCacheConfig(seed=25, cache_shards=4,
                               manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=25)
        service.seed_cache(dataset.example_bank_requests()[:120])
        assert sum(service.cache.shard_sizes) == len(service.cache)
        outcomes = service.serve_batch(dataset.online_requests(16), load=0.2)
        assert len(outcomes) == 16


class TestRouterDisabled:
    def test_router_disabled_always_offloads(self):
        config = ICCacheConfig(seed=6, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config, router_enabled=False)
        dataset = SyntheticDataset("alpaca", scale=0.002, seed=6)
        service.seed_cache(dataset.example_bank_requests()[:50])
        outcomes = [service.serve(r) for r in dataset.online_requests(20)]
        assert all(o.choice.model_name == service.small_name for o in outcomes)


class TestSelectorDisabled:
    def test_selector_disabled_serves_without_examples(self):
        config = ICCacheConfig(seed=7, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config, selector_enabled=False)
        dataset = SyntheticDataset("alpaca", scale=0.002, seed=7)
        service.seed_cache(dataset.example_bank_requests()[:50])
        outcomes = [service.serve(r) for r in dataset.online_requests(20)]
        assert all(o.result.n_examples == 0 for o in outcomes)


class TestFaultTolerance:
    def test_selector_failure_bypasses_to_large_model(self):
        config = ICCacheConfig(seed=8, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)

        def broken_select(embedding):
            raise RuntimeError("retriever replica down")

        service.selector.select = broken_select
        outcome = service.serve(make_request(), load=0.1)
        assert outcome.bypassed
        assert outcome.choice.model_name == service.large_name
        assert service.stats.bypasses == 1


class TestQualityHeadline:
    def test_quality_parity_with_always_large(self):
        # The paper's headline: IC-Cache offloads aggressively without
        # hurting response quality (win rate near or above parity).
        config = ICCacheConfig(seed=9, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.001, seed=9)
        service.seed_cache(dataset.example_bank_requests()[:400])
        requests = dataset.online_requests(300)
        outcomes = [service.serve(r, load=0.3) for r in requests]
        large = get_model(service.large_name, seed=123)
        reference = [large.generate(r).quality for r in requests]
        report = evaluate_pairwise(
            [o.result.quality for o in outcomes], reference
        )
        assert report.win_rate > 0.4
        assert service.stats.offload_ratio > 0.3


class TestClusterIntegration:
    def test_service_drives_cluster_simulation(self):
        config = ICCacheConfig(seed=10, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=10)
        service.seed_cache(dataset.example_bank_requests()[:150])
        sim = ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(service.models[service.small_name], replicas=4),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ],
            gpu_budget=16,
        ))
        requests = dataset.online_requests(120)
        arrivals = [(i * 0.5, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, service.cluster_router(),
                         on_complete=service.on_complete)
        assert report.n == 120
        assert service.stats.served == 120
        assert report.offload_ratio({service.small_name}) > 0.0


class TestClusterBatchedIntegration:
    def test_service_drives_batched_cluster_simulation(self):
        from repro.serving.engine import BatchedRetrievalEngine, BatchPolicy

        config = ICCacheConfig(seed=26, cache_shards=2,
                               manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=26)
        service.seed_cache(dataset.example_bank_requests()[:150])
        sim = ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(service.models[service.small_name], replicas=4),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ],
            gpu_budget=16,
        ))
        engine = BatchedRetrievalEngine(
            service.cluster_batch_router(),
            BatchPolicy(max_batch=8, max_wait_s=0.25),
        )
        requests = dataset.online_requests(96)
        arrivals = [(i * 0.05, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, engine, on_complete=service.on_complete)
        assert report.n == 96
        assert service.stats.served == 96
        assert report.offload_ratio({service.small_name}) > 0.0
        # Batching delay is charged as queue wait, bounded by max_wait_s
        # plus whatever replica-slot queueing the run produced.
        assert all(r.queue_wait_s >= 0 for r in report.records)


class TestClient:
    def test_client_lifecycle(self):
        config = ICCacheConfig(seed=12, manager=ManagerConfig(sanitize=False))
        client = ICCacheClient(config)
        dataset = SyntheticDataset("alpaca", scale=0.002, seed=12)
        client.service.seed_cache(dataset.example_bank_requests()[:30])
        requests = dataset.online_requests(5)
        outcomes = client.generate(requests)
        assert len(outcomes) == 5
        client.stop()
        with pytest.raises(RuntimeError):
            client.generate(requests)

    def test_update_cache_validates_pairing(self):
        client = ICCacheClient(ICCacheConfig(seed=13,
                                             manager=ManagerConfig(sanitize=False)))
        with pytest.raises(ValueError):
            client.update_cache([make_request()], [])

    def test_context_manager(self):
        with ICCacheClient(ICCacheConfig(seed=14)) as client:
            assert client.service is not None
        with pytest.raises(RuntimeError):
            client.generate([])
