"""Unit tests for the two-stage Example Selector."""

import numpy as np
import pytest

from repro.core import selector as selector_module
from repro.core.cache import ExampleCache
from repro.core.config import SelectorConfig
from repro.core.proxy import HelpfulnessProxy
from repro.core.selector import ExampleSelector

from tests.test_core_cache import make_example


def build_selector(n_examples=12, config=None, trained_proxy=True):
    cache = ExampleCache(dim=64)
    for i in range(n_examples):
        cache.add(make_example(example_id=f"ex-{i}", direction=i % 6,
                               quality=0.5 + 0.04 * (i % 6)))
    proxy = HelpfulnessProxy()
    if trained_proxy:
        # Teach the proxy that helpfulness ~ relevance.
        rng = np.random.default_rng(0)
        for _ in range(150):
            ex = cache.get(f"ex-{rng.integers(0, n_examples)}")
            query = np.zeros(64)
            query[rng.integers(0, 6)] = 1.0
            relevance = float(query @ ex.embedding)
            proxy.update(query, ex, 0.3 * relevance + rng.normal(0, 0.02))
    selector = ExampleSelector(cache, proxy, config or SelectorConfig())
    return selector, cache


def query_direction(d, dim=64):
    q = np.zeros(dim)
    q[d] = 1.0
    return q


class TestStagedSelection:
    def test_selects_relevant_examples(self):
        selector, _ = build_selector()
        chosen = selector.select(query_direction(2))
        assert chosen
        for scored in chosen:
            assert scored.relevance > 0.9

    def test_respects_max_examples(self):
        config = SelectorConfig(pre_k=10, max_examples=2)
        selector, _ = build_selector(config=config)
        assert len(selector.select(query_direction(1))) <= 2

    def test_empty_cache_returns_empty(self):
        selector, _ = build_selector(n_examples=0, trained_proxy=False)
        assert selector.select(query_direction(0)) == []

    def test_threshold_filters_low_utility(self):
        selector, _ = build_selector()
        selector.utility_threshold = 10.0   # an impossible bar
        assert selector.select(query_direction(0)) == []

    def test_ascending_utility_order(self):
        selector, _ = build_selector()
        chosen = selector.select(query_direction(3))
        utilities = [s.utility for s in chosen]
        assert utilities == sorted(utilities)

    def test_context_budget_respected(self):
        config = SelectorConfig(context_budget_tokens=50, max_examples=5)
        selector, _ = build_selector(config=config)
        chosen = selector.select(query_direction(0))
        assert sum(s.example.tokens for s in chosen) <= 50

    def test_access_counts_recorded(self):
        selector, cache = build_selector()
        chosen = selector.select(query_direction(2))
        for scored in chosen:
            assert cache.get(scored.example.example_id).access_count >= 1


class TestThresholdAdaptation:
    def test_threshold_adapts_on_schedule(self, monkeypatch):
        monkeypatch.setattr(selector_module, "ADAPT_EVERY", 5)
        monkeypatch.setattr(selector_module, "THRESHOLD_GRID",
                            (0.0, 0.02, 0.5))
        selector, _ = build_selector()
        for i in range(20):
            selector.select(query_direction(i % 6))
        # With useful utilities around 0.2-0.3, threshold 0.5 would zero the
        # net gain; the adapter must settle on one of the permissive values.
        assert selector.utility_threshold in (0.0, 0.02)

    def test_high_token_cost_drives_threshold_up(self, monkeypatch):
        monkeypatch.setattr(selector_module, "ADAPT_EVERY", 5)
        monkeypatch.setattr(selector_module, "TOKEN_COST_WEIGHT", 1.0)
        monkeypatch.setattr(selector_module, "THRESHOLD_GRID", (0.0, 0.9))
        selector, _ = build_selector()
        for i in range(10):
            selector.select(query_direction(i % 6))
        # Every example's token cost dwarfs its utility, so the adapter
        # should pick the exclusionary threshold.
        assert selector.utility_threshold == 0.9


class TestSelectorConfigValidation:
    def test_max_exceeding_pre_k_rejected(self):
        with pytest.raises(ValueError):
            SelectorConfig(pre_k=3, max_examples=5)

    def test_nonpositive_pre_k_rejected(self):
        with pytest.raises(ValueError):
            SelectorConfig(pre_k=0)

