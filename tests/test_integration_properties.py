"""Property-based integration tests: system invariants under random configs.

These exercise the whole service end-to-end with hypothesis-chosen
configurations and assert the invariants that must hold regardless of
tuning: every request gets a response, capacity bounds are never violated,
bookkeeping is consistent, and the simulation is replay-deterministic.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import service as service_module
from repro.core.config import ICCacheConfig, ManagerConfig, RouterConfig, SelectorConfig
from repro.core.service import ICCacheService
from repro.workload.datasets import SyntheticDataset


def build_service(seed, max_examples, capacity_kb, cost_penalty):
    config = ICCacheConfig(
        seed=seed,
        selector=SelectorConfig(pre_k=max(8, max_examples),
                                max_examples=max_examples),
        router=RouterConfig(cost_penalty=cost_penalty),
        manager=ManagerConfig(
            sanitize=False,
            capacity_bytes=capacity_kb * 1024 if capacity_kb else None,
        ),
    )
    return ICCacheService(config)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_examples=st.integers(min_value=0, max_value=6),
    capacity_kb=st.sampled_from([None, 8, 64]),
    cost_penalty=st.floats(min_value=0.0, max_value=0.3),
    feedback_rate=st.floats(min_value=0.0, max_value=1.0),
)
def test_service_invariants_under_random_configs(seed, max_examples,
                                                 capacity_kb, cost_penalty,
                                                 feedback_rate):
    service = build_service(seed, max_examples, capacity_kb, cost_penalty)
    dataset = SyntheticDataset("ms_marco", scale=0.0003, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:40])
    requests = dataset.online_requests(30)
    with mock.patch.object(service_module, "FEEDBACK_SAMPLE_RATE",
                           feedback_rate):
        outcomes = [service.serve(r, load=float(seed % 3)) for r in requests]

    # Every request is answered, by a deployed model, with a valid quality.
    assert len(outcomes) == len(requests)
    for outcome in outcomes:
        assert outcome.choice.model_name in service.models
        assert 0.0 <= outcome.result.quality <= 1.0
        assert outcome.result.n_examples <= max_examples
        assert outcome.result.prompt_tokens > 0

    # Capacity bound holds after every admission.
    if capacity_kb is not None:
        assert service.cache.total_bytes <= capacity_kb * 1024

    # Bookkeeping consistency.
    assert service.stats.served == len(requests)
    assert 0 <= service.stats.offloaded <= service.stats.served
    assert service.router.decisions >= len(requests)


def run_fixed_session(seed: int) -> list[tuple[str, float]]:
    service = build_service(seed, 3, None, 0.05)
    dataset = SyntheticDataset("alpaca", scale=0.002, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:60])
    outcomes = [service.serve(r, load=0.4)
                for r in dataset.online_requests(40)]
    return [(o.choice.model_name, o.result.quality) for o in outcomes]


class TestDeterminism:
    def test_full_session_replays_identically(self):
        # The whole stack (workload, selection, routing, generation,
        # feedback) is a pure function of the seed.
        assert run_fixed_session(99) == run_fixed_session(99)

    def test_different_seeds_differ(self):
        assert run_fixed_session(1) != run_fixed_session(2)


class TestCapacityChurn:
    def test_sustained_traffic_under_tight_budget(self):
        service = build_service(5, 3, 8, 0.05)   # 8 KiB budget
        dataset = SyntheticDataset("ms_marco", scale=0.0003, seed=5)
        service.seed_cache(dataset.example_bank_requests()[:50])
        for request in dataset.online_requests(80):
            service.serve(request, load=0.2)
            assert service.cache.total_bytes <= 8 * 1024
        # The tiny cache keeps churning but never empties out completely.
        assert len(service.cache) >= 1
        assert service.manager.evictions > 0
