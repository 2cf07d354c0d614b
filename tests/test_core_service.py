"""Integration tests for ICCacheService and ICCacheClient."""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.client import ICCacheClient
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.judge import evaluate_pairwise
from repro.llm.zoo import get_model
from repro.pipeline.context import ServeContext
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

        for name in ("ICCacheService", "ICCacheClient", "ICCacheConfig"):
            assert hasattr(core, name), name
        assert repro.ICCacheService is ICCacheService

    def test_serve_context_fields(self):
        fields = {f.name for f in ServeContext.__dataclass_fields__.values()}
        assert {"request", "result", "choice", "examples",
                "admitted_example", "bypassed"} <= fields
        assert isinstance(ServeContext.offloaded, property)

    def test_stats_surface(self):
        stats = ServiceStats()
        for counter in ("served", "offloaded", "bypasses",
                        "router_updates", "proxy_updates"):
            assert getattr(stats, counter) == 0
        assert stats.offload_ratio == 0.0
        assert stats.mean_quality == 0.0


class TestFacadeCallSites:
    """``serve`` / ``serve_batch`` are thin facades over the pipeline, and
    the cluster drives ``pipeline.route_batch`` / ``pipeline.on_complete``;
    benchmarks and examples call them exactly like this."""

    def test_serve_returns_serve_context(self):
        service, dataset = _small_service(seed=71)
        outcome = service.serve(dataset.online_requests(1)[0], load=0.2)
        assert isinstance(outcome, ServeContext)
        assert outcome.result.model_name == outcome.choice.model_name
        assert isinstance(outcome.offloaded, bool)

    def test_serve_positional_load_still_accepted(self):
        service, dataset = _small_service(seed=72)
        outcome = service.serve(dataset.online_requests(1)[0], 0.2)
        assert isinstance(outcome, ServeContext)

    def test_serve_batch_returns_outcome_list(self):
        service, dataset = _small_service(seed=73)
        outcomes = service.serve_batch(dataset.online_requests(4), load=0.2)
        assert len(outcomes) == 4
        assert all(isinstance(o, ServeContext) for o in outcomes)

    def test_pipeline_route_batch_contract(self):
        # The batch router pairs with pipeline.on_complete; routed alone,
        # each request is a batch of one.
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
        report = sim.run(arrivals, service.pipeline.route_batch,
                         on_complete=service.pipeline.on_complete)
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


class TestNonFiniteLatent:
    """A NaN latent used to be served and admitted with a NaN embedding;
    lazy retrains then failed in k-means++ seeding ("Probabilities contain
    NaN") on later, healthy requests.  It is refused before anything moves."""

    @staticmethod
    def _digest(service) -> str:
        """The snapshot manifest's hash (it holds the sidecar's)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = service.save(Path(tmp) / "state.json")
            return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_nan_latent_is_refused_and_the_service_keeps_serving(self):
        service = ICCacheService(ICCacheConfig(
            seed=0, manager=ManagerConfig(sanitize=True)))
        dataset = SyntheticDataset("ms_marco", scale=300 / 808_731, seed=0)
        service.seed_cache(dataset.example_bank_requests()[:300])
        requests = dataset.online_requests(380)
        before = self._digest(service)
        for latent in (np.full(64, np.nan), np.r_[np.inf, np.zeros(63)]):
            poison = dataclasses.replace(requests[0], request_id="poison",
                                         latent=latent)
            with pytest.raises(ValueError, match="latent is not finite"):
                service.serve(poison)
            with pytest.raises(ValueError, match="latent is not finite"):
                service.serve_batch([requests[0], poison])
            with pytest.raises(ValueError, match="latent is not finite"):
                service.seed_cache([poison])
        assert self._digest(service) == before
        assert service.stats.served == 0
        for start in range(0, 380, 20):      # lazy retrains included
            service.serve_batch(requests[start:start + 10], load=0.2)
            for request in requests[start + 10:start + 20]:
                service.serve(request)
        assert service.stats.served == 380
        assert np.isfinite(service.cache.table.col("embedding_norm")).all()


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


class TestLoadRefusal:
    """A ``load`` outside [0, inf) would pin the router's load EMA for the
    rest of the run (an ``inf`` holds the bias at its ceiling, a NaN reads
    as no bias); it is refused before anything moves."""

    @pytest.mark.parametrize("load", [float("nan"), float("inf"),
                                      float("-inf"), -0.5])
    @pytest.mark.parametrize("entry", ["serve", "serve_batch"])
    def test_bad_load_is_refused_before_anything_moves(self, entry, load):
        service, dataset = _small_service(seed=3)
        service.serve(dataset.online_requests(1)[0], load=0.1)
        requests = dataset.online_requests(2)
        ema_count = service.router.load_ema.count
        ema_value = service.router.load_ema.value
        served = service.stats.served
        rng_state = service._rng.bit_generator.state
        with pytest.raises(ValueError, match="load"):
            if entry == "serve":
                service.serve(requests[0], load=load)
            else:
                service.serve_batch(requests, load=load)
        assert service.router.load_ema.count == ema_count
        assert service.router.load_ema.value == ema_value
        assert service.stats.served == served
        assert service._rng.bit_generator.state == rng_state
        # The next good load is averaged as if the bad call never came.
        service.serve(requests[0], load=0.1)
        assert service.router.load_ema.value == pytest.approx(0.1)


class TestRouterDisabled:
    def test_router_disabled_always_offloads(self):
        config = ICCacheConfig(seed=6, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        service.router_enabled = False
        dataset = SyntheticDataset("alpaca", scale=0.002, seed=6)
        service.seed_cache(dataset.example_bank_requests()[:50])
        outcomes = [service.serve(r) for r in dataset.online_requests(20)]
        assert all(o.choice.model_name == service.small_name for o in outcomes)


class TestSelectorDisabled:
    def test_selector_disabled_serves_without_examples(self):
        config = ICCacheConfig(seed=7, manager=ManagerConfig(sanitize=False))
        service = ICCacheService(config)
        service.selector_enabled = False
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
        report = sim.run(arrivals, service.pipeline.route_batch,
                         on_complete=service.pipeline.on_complete)
        assert report.n == 120
        assert service.stats.served == 120
        assert report.offload_ratio({service.small_name}) > 0.0


class TestClusterBatchedIntegration:
    def test_service_drives_batched_cluster_simulation(self):
        from repro.serving.engine import BatchPolicy

        config = ICCacheConfig(seed=26, manager=ManagerConfig(sanitize=False))
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
        requests = dataset.online_requests(96)
        arrivals = [(i * 0.05, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, service.pipeline.route_batch,
                         on_complete=service.pipeline.on_complete,
                         policy=BatchPolicy(max_batch=8, max_wait_s=0.25))
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


class TestICCacheConfigRefusals:
    def test_negative_seed_refused(self):
        # It built a service whose first lazy K-Means retrain raised
        # numpy's "expected non-negative integer" from inside an admission.
        with pytest.raises(ValueError, match="seed"):
            ICCacheConfig(seed=-1)
        ICCacheConfig(seed=0)
