"""Fault-tolerance bypass coverage on the batched path (paper section 5).

The inline bypass is unit-tested in ``test_fault_injection.py``; these
tests exercise the two batched-path granularities through an
injected-failure middleware: a whole-batch retrieval failure bypasses
every request of the micro-batch, a per-request routing failure bypasses
only the afflicted request.
"""

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.pipeline import FaultInjectionMiddleware
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchPolicy
from repro.workload.datasets import SyntheticDataset


def build_service(seed=61):
    service = ICCacheService(ICCacheConfig(
        seed=seed, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:80])
    return service, dataset


def inject(service, middleware):
    """Install an injection middleware ahead of the bypass handler."""
    service.pipeline.middlewares.insert(0, middleware)
    return middleware


class FailFirstBatch:
    """Predicate that fails only the first retrieval batch it sees."""

    def __init__(self):
        self.calls = 0
        self.first_batch_size = None

    def __call__(self, contexts):
        self.calls += 1
        if self.calls == 1:
            self.first_batch_size = len(contexts)
            return True
        return False


class TestBatchedRetrievalFailure:
    def test_whole_batch_bypassed(self):
        service, dataset = build_service()
        chaos = inject(service, FaultInjectionMiddleware(
            fail_retrieval=lambda contexts: True))
        outcomes = service.serve_batch(dataset.online_requests(6), load=0.2)
        assert chaos.retrieval_failures == 1
        assert all(o.bypassed for o in outcomes)
        assert all(o.choice.model_name == service.large_name for o in outcomes)
        assert all(o.result.n_examples == 0 for o in outcomes)
        assert service.stats.bypasses == 6
        assert service.stats.served == 6   # continuity: nothing dropped

    def test_only_failed_batches_bypassed(self):
        service, dataset = build_service(seed=62)
        chaos = inject(service, FaultInjectionMiddleware(
            fail_retrieval=FailFirstBatch()))
        first = service.serve_batch(dataset.online_requests(4), load=0.2)
        second = service.serve_batch(dataset.online_requests(4), load=0.2)
        assert chaos.retrieval_failures == 1
        assert all(o.bypassed for o in first)
        assert not any(o.bypassed for o in second)
        assert service.stats.bypasses == 4


class TestBatchedRoutingFailure:
    def test_only_afflicted_requests_bypassed(self):
        service, dataset = build_service(seed=63)
        requests = dataset.online_requests(8)
        doomed = {requests[2].request_id, requests[5].request_id}
        chaos = inject(service, FaultInjectionMiddleware(
            fail_route=lambda ctx: ctx.request.request_id in doomed))
        outcomes = service.serve_batch(requests, load=0.2)
        assert chaos.route_failures == 2
        assert [o.bypassed for o in outcomes] == \
            [r.request_id in doomed for r in requests]
        for outcome in outcomes:
            if outcome.bypassed:
                assert outcome.choice.model_name == service.large_name
                assert outcome.examples == []
        assert service.stats.bypasses == 2
        assert service.stats.served == 8


class TestClusterBatchedPathUnderFailures:
    def _sim(self, service):
        return ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(service.models[service.small_name], replicas=4),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ],
            gpu_budget=16,
        ))

    def test_first_batch_retrieval_outage_drops_nothing(self):
        service, dataset = build_service(seed=64)
        fail_first = FailFirstBatch()
        chaos = inject(service, FaultInjectionMiddleware(
            fail_retrieval=fail_first))
        requests = dataset.online_requests(32)
        arrivals = [(i * 0.05, r) for i, r in enumerate(requests)]
        report = self._sim(service).run(
            arrivals, service.pipeline.route_batch,
            on_complete=service.pipeline.on_complete,
            policy=BatchPolicy(max_batch=8, max_wait_s=0.25))
        assert report.n == 32                  # no request lost
        assert chaos.retrieval_failures == 1
        # Exactly the first micro-batch was bypassed, whatever size the
        # size/timeout policy flushed it at.
        assert fail_first.first_batch_size > 1
        assert service.stats.bypasses == fail_first.first_batch_size
        # Bypassed requests went to the large model; the rest routed normally.
        assert report.offload_ratio({service.small_name}) > 0.0

    def test_per_request_routing_failures_on_cluster_batches(self):
        service, dataset = build_service(seed=65)
        requests = dataset.online_requests(24)
        doomed = {requests[i].request_id for i in (1, 9, 17)}
        chaos = inject(service, FaultInjectionMiddleware(
            fail_route=lambda ctx: ctx.request.request_id in doomed))
        arrivals = [(i * 0.05, r) for i, r in enumerate(requests)]
        report = self._sim(service).run(
            arrivals, service.pipeline.route_batch,
            on_complete=service.pipeline.on_complete,
            policy=BatchPolicy(max_batch=8, max_wait_s=0.25))
        assert report.n == 24
        assert chaos.route_failures == 3
        assert service.stats.bypasses == 3
        by_id = {r.request_id: r for r in report.records}
        for request_id in sorted(doomed):
            assert by_id[request_id].model_name == service.large_name
            assert by_id[request_id].n_examples == 0

    def test_unhandled_failure_propagates_without_bypass(self):
        # Without the bypass middleware, a stage failure is a hard error —
        # the §5 behaviour really is supplied by the middleware.
        from repro.pipeline import FaultBypassMiddleware

        service, dataset = build_service(seed=66)
        service.pipeline.middlewares = [
            m for m in service.pipeline.middlewares
            if not isinstance(m, FaultBypassMiddleware)
        ]
        inject(service, FaultInjectionMiddleware(
            fail_retrieval=lambda ctxs: True))
        with pytest.raises(ConnectionError):
            service.serve_batch(dataset.online_requests(3))
