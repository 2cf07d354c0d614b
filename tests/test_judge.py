"""Unit tests for the LLM-as-a-judge autorater and win-rate metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.judge import autorater
from repro.judge.autorater import Autorater, TIE_BAND
from repro.judge.metrics import evaluate_pairwise, win_rate_from_scores


class TestAutorater:
    def test_scores_in_seven_point_range(self):
        rater = Autorater(seed=0)
        for _ in range(100):
            assert -3 <= rater.score_once(0.9, 0.1) <= 3

    def test_better_quality_scores_higher(self):
        rater = Autorater(seed=1)
        avg = rater.compare(0.9, 0.2)
        assert avg > 1.0

    def test_parity_near_zero(self):
        rater = Autorater(seed=2, samples_per_order=32)
        scores = [rater.compare(0.5, 0.5) for _ in range(50)]
        assert abs(np.mean(scores)) < 0.15

    def test_order_bias_cancels(self, monkeypatch):
        # With a huge position bias, the two-order protocol still nets ~0
        # at quality parity.
        monkeypatch.setattr(autorater, "POSITION_BIAS", 1.0)
        rater = Autorater(seed=3, samples_per_order=64)
        assert abs(rater.compare(0.5, 0.5)) < 0.3

    def test_antisymmetry_in_expectation(self):
        rater = Autorater(seed=4, samples_per_order=64)
        ab = np.mean([rater.compare(0.8, 0.4) for _ in range(20)])
        ba = np.mean([rater.compare(0.4, 0.8) for _ in range(20)])
        assert ab == pytest.approx(-ba, abs=0.2)

    def test_verdict_labels(self, monkeypatch):
        monkeypatch.setattr(autorater, "JUDGE_NOISE_STD", 0.0)
        monkeypatch.setattr(autorater, "POSITION_BIAS", 0.0)
        rater = Autorater(seed=5)
        assert rater.verdict(0.9, 0.1) == "win"
        assert rater.verdict(0.1, 0.9) == "loss"
        assert rater.verdict(0.5, 0.5) == "tie"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Autorater(samples_per_order=0)


class TestWinRate:
    def test_empty_scores_are_parity(self):
        report = win_rate_from_scores([])
        assert report.win_rate == 0.5
        assert report.n == 0

    def test_paper_formula(self):
        # 2 wins, 1 tie, 1 loss -> (2 + 0.5) / 4.
        report = win_rate_from_scores([1.0, 2.0, 0.0, -1.0])
        assert report.wins == 2
        assert report.ties == 1
        assert report.losses == 1
        assert report.win_rate == pytest.approx(2.5 / 4)

    def test_tie_band_boundaries(self):
        report = win_rate_from_scores([TIE_BAND, -TIE_BAND])
        assert report.ties == 2

    def test_avg_score(self):
        report = win_rate_from_scores([1.0, -1.0, 3.0])
        assert report.avg_score == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=50))
    def test_win_rate_bounded_and_consistent(self, scores):
        report = win_rate_from_scores(scores)
        assert 0.0 <= report.win_rate <= 1.0
        assert report.wins + report.ties + report.losses == report.n


class TestEvaluatePairwise:
    def test_dominant_model_wins(self):
        report = evaluate_pairwise([0.9] * 50, [0.2] * 50, Autorater(seed=6))
        assert report.win_rate > 0.9
        assert report.avg_score > 1.0

    def test_symmetric_inputs_near_parity(self):
        rng = np.random.default_rng(0)
        qualities = rng.uniform(0.3, 0.7, size=200)
        report = evaluate_pairwise(qualities, qualities, Autorater(seed=7))
        assert 0.35 <= report.win_rate <= 0.65

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_pairwise([0.5], [0.5, 0.6])

    def test_win_rate_monotone_in_quality_gap(self):
        rater = Autorater(seed=8)
        small_gap = evaluate_pairwise([0.55] * 100, [0.5] * 100, rater).win_rate
        rater2 = Autorater(seed=8)
        large_gap = evaluate_pairwise([0.8] * 100, [0.5] * 100, rater2).win_rate
        assert large_gap > small_gap
