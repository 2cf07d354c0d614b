"""Failure-injection tests (paper section 5, fault tolerance).

"If a failed request to the Example Retriever or Request Router is detected,
the system automatically bypasses these components and routes the request
directly to the inference backend to maintain service continuity."
"""

import numpy as np

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.datasets import SyntheticDataset


def build_service(seed=21):
    service = ICCacheService(ICCacheConfig(
        seed=seed, manager=ManagerConfig(sanitize=False),
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:100])
    return service, dataset


class FlakyComponent:
    """Wraps a callable; raises on a configurable schedule."""

    def __init__(self, inner, fail_every: int):
        self.inner = inner
        self.fail_every = fail_every
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls % self.fail_every == 0:
            raise ConnectionError("injected: component replica unreachable")
        return self.inner(*args, **kwargs)


class TestSelectorFailures:
    def test_intermittent_selector_failures_never_drop_requests(self):
        service, dataset = build_service()
        service.selector.select = FlakyComponent(service.selector.select,
                                                 fail_every=3)
        requests = dataset.online_requests(60)
        outcomes = [service.serve(r, load=0.2) for r in requests]
        assert len(outcomes) == 60
        assert service.stats.bypasses == 20
        # Bypassed requests went straight to the large model.
        bypassed = [o for o in outcomes if o.bypassed]
        assert all(o.choice.model_name == service.large_name for o in bypassed)

    def test_total_selector_outage_degrades_to_large_model(self):
        service, dataset = build_service()

        def dead(embedding):
            raise ConnectionError("injected: retriever down")

        service.selector.select = dead
        outcomes = [service.serve(r) for r in dataset.online_requests(20)]
        assert all(o.bypassed for o in outcomes)
        assert all(o.result.model_name == service.large_name for o in outcomes)
        # Quality continuity: responses are still produced at large-model level.
        assert np.mean([o.result.quality for o in outcomes]) > 0.3


class TestRouterFailures:
    def test_router_failure_bypasses(self):
        service, dataset = build_service()

        def broken(request, examples, load=None):
            raise RuntimeError("injected: router replica crash")

        service.router.route = broken
        outcome = service.serve(dataset.online_requests(1)[0], load=0.2)
        assert outcome.bypassed
        assert outcome.choice.model_name == service.large_name

    def test_recovery_after_outage(self):
        service, dataset = build_service()
        original = service.selector.select

        def dead(embedding):
            raise ConnectionError("injected")

        service.selector.select = dead
        for request in dataset.online_requests(10):
            service.serve(request, load=0.2)
        assert service.stats.bypasses == 10

        service.selector.select = original   # replica recovered
        outcomes = [service.serve(r, load=0.2)
                    for r in dataset.online_requests(30)]
        assert not any(o.bypassed for o in outcomes)


class TestClusterUnderFailures:
    def test_cluster_run_completes_with_flaky_selector(self):
        service, dataset = build_service()
        service.selector.select = FlakyComponent(service.selector.select,
                                                 fail_every=4)
        sim = ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(service.models[service.small_name], replicas=4),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ],
            gpu_budget=16,
        ))
        requests = dataset.online_requests(80)
        arrivals = [(i * 0.3, r) for i, r in enumerate(requests)]
        report = sim.run(arrivals, service.pipeline.route_batch,
                         on_complete=service.pipeline.on_complete)
        assert report.n == 80  # no request lost despite injected failures
