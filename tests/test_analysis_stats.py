"""Unit and property tests for repro.analysis.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import (
    EMA,
    pearson_correlation,
    percentile,
    summarize_latencies,
)


class TestEMA:
    def test_first_update_sets_value(self):
        ema = EMA(alpha=0.3)
        assert not ema.initialized
        ema.update(5.0)
        assert ema.value == 5.0

    def test_update_moves_toward_input(self):
        ema = EMA(alpha=0.5, initial=0.0)
        ema.update(10.0)
        assert ema.value == pytest.approx(5.0)

    def test_alpha_one_tracks_exactly(self):
        ema = EMA(alpha=1.0)
        for x in [3.0, 7.0, -2.0]:
            ema.update(x)
            assert ema.value == x

    def test_invalid_alpha(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                EMA(alpha=alpha)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_value_bounded_by_input_range(self, xs, alpha):
        ema = EMA(alpha=alpha)
        for x in xs:
            ema.update(x)
        assert min(xs) - 1e-9 <= ema.value <= max(xs) + 1e-9


class TestPercentileAndCdf:
    def test_percentile_of_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=40))
    def test_bounded(self, xs):
        ys = [x * 0.5 + i for i, x in enumerate(xs)]
        r = pearson_correlation(xs, ys)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestLatencySummary:
    def test_empty_summary(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert math.isnan(summary.p50)

    def test_percentile_ordering(self):
        summary = summarize_latencies(np.linspace(0.1, 10.0, 200))
        assert summary.p50 <= summary.p90 <= summary.p99 <= summary.maximum
        assert summary.count == 200

    def test_single_sample(self):
        summary = summarize_latencies([2.5])
        assert summary.p50 == summary.p99 == summary.maximum == 2.5
