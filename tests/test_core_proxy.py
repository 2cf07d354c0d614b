"""Unit tests for the helpfulness proxy model."""

import numpy as np
import pytest

from repro.core.proxy import HelpfulnessProxy, N_FEATURES, proxy_features

from tests.hotpath_reference import predict
from tests.test_core_cache import make_example


class TestProxyFeatures:
    def test_feature_vector_shape(self):
        ex = make_example()
        x = proxy_features(ex.embedding, ex)
        assert x.shape == (N_FEATURES,)

    def test_relevance_feature_reflects_similarity(self):
        ex = make_example(direction=0)
        aligned = proxy_features(ex.embedding, ex)
        orthogonal = np.zeros(64)
        orthogonal[1] = 1.0
        far = proxy_features(orthogonal, ex)
        assert aligned[1] > far[1]

    def test_feedback_quality_defaults_to_half(self):
        ex = make_example()
        x = proxy_features(ex.embedding, ex)
        assert x[2] == pytest.approx(0.5)

    def test_feedback_quality_used_once_initialized(self):
        ex = make_example()
        ex.record_use(gain=0.0, quality=0.9, offload=0.0)
        x = proxy_features(ex.embedding, ex)
        assert x[2] == pytest.approx(0.9)


class TestHelpfulnessProxy:
    def test_cold_start_prefers_relevant(self):
        proxy = HelpfulnessProxy()
        ex = make_example(direction=0)
        orthogonal = np.zeros(64)
        orthogonal[1] = 1.0
        assert predict(proxy, ex.embedding, ex) > predict(proxy, orthogonal, ex)

    def test_learns_relevance_utility_relationship(self):
        # Train on synthetic labels: utility = relevance * 0.4; the proxy
        # must learn to rank a relevant example above an irrelevant one.
        proxy = HelpfulnessProxy()
        rng = np.random.default_rng(0)
        examples = [make_example(example_id=f"ex-{i}", direction=i % 8)
                    for i in range(8)]
        for _ in range(200):
            ex = examples[rng.integers(0, 8)]
            query = np.zeros(64)
            query[rng.integers(0, 8)] = 1.0
            relevance = float(query @ ex.embedding)
            proxy.update(query, ex, 0.4 * relevance + rng.normal(0, 0.02))
        ex = examples[3]
        aligned_query = ex.embedding
        misaligned = np.zeros(64)
        misaligned[(3 + 1) % 8] = 1.0
        assert predict(proxy, aligned_query, ex) > predict(proxy, misaligned, ex) + 0.1

    def test_updates_counted(self):
        proxy = HelpfulnessProxy()
        ex = make_example()
        proxy.update(ex.embedding, ex, 0.5)
        assert proxy.updates == 1

    @pytest.mark.parametrize("observed", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_observation_is_refused_before_anything_moves(
            self, observed):
        proxy = HelpfulnessProxy()
        ex = make_example()
        proxy.update(ex.embedding, ex, 0.5)
        weights = proxy.weights
        with pytest.raises(ValueError, match="finite"):
            proxy.update(ex.embedding, ex, observed)
        assert proxy.updates == 1
        np.testing.assert_array_equal(proxy.weights, weights)
        assert np.isfinite(proxy.weights).all()

    def test_prediction_converges_to_constant_labels(self):
        proxy = HelpfulnessProxy()
        ex = make_example()
        for _ in range(100):
            proxy.update(ex.embedding, ex, 0.25)
        assert predict(proxy, ex.embedding, ex) == pytest.approx(0.25, abs=0.05)
