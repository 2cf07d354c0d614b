"""Simulated user feedback (thumbs up/down, preference comparisons).

Sections 4.1 and 4.2 rely on the feedback channels production platforms
already collect: sampled thumbs ratings train the helpfulness proxy, and
"which response do you prefer?" comparisons train the request router.  The
simulator converts latent response quality into those noisy binary signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, stable_hash


@dataclass(frozen=True)
class PreferenceFeedback:
    """Outcome of one pairwise preference solicitation."""

    preferred: int   # 0 -> first response, 1 -> second
    confidence: float


class FeedbackSimulator:
    """Noisy human feedback over latent response qualities.

    ``rating_noise`` blurs the thumbs-up threshold; ``preference_noise`` is
    the Bradley-Terry temperature for pairwise comparisons (appendix A.2
    assumes the Bradley-Terry model, so we implement it directly).
    """

    def __init__(self, rating_noise: float = 0.08, preference_noise: float = 0.12,
                 thumbs_up_threshold: float = 0.5, seed: int = 0) -> None:
        if rating_noise < 0 or preference_noise <= 0:
            raise ValueError("noise parameters must be positive")
        self.rating_noise = rating_noise
        self.preference_noise = preference_noise
        self.thumbs_up_threshold = thumbs_up_threshold
        self._rng = make_rng(stable_hash("feedback", seed))

    def thumbs(self, quality: float) -> bool:
        """Thumbs-up / thumbs-down for one response."""
        observed = quality + self._rng.normal(0.0, self.rating_noise)
        return bool(observed >= self.thumbs_up_threshold)

    def rating(self, quality: float) -> float:
        """A continuous quality rating in [0, 1] (e.g. reward-model score)."""
        observed = quality + self._rng.normal(0.0, self.rating_noise)
        return float(np.clip(observed, 0.0, 1.0))

    def preference(self, quality_a: float, quality_b: float) -> PreferenceFeedback:
        """Bradley-Terry pairwise preference between two responses."""
        delta = (quality_a - quality_b) / self.preference_noise
        p_a = 1.0 / (1.0 + np.exp(-delta))
        preferred = 0 if self._rng.uniform() < p_a else 1
        confidence = float(max(p_a, 1.0 - p_a))
        return PreferenceFeedback(preferred=preferred, confidence=confidence)
