"""Simulated user feedback (thumbs up/down, preference comparisons).

Sections 4.1 and 4.2 rely on the feedback channels production platforms
already collect: sampled thumbs ratings train the helpfulness proxy, and
"which response do you prefer?" comparisons train the request router.  The
simulator converts latent response quality into those noisy binary signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, stable_hash

THUMBS_UP_THRESHOLD = 0.5   # observed quality at or above it is a thumbs-up


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
                 seed: int = 0) -> None:
        # NaN and inf fail both comparisons: either would poison every label.
        if not (0.0 <= rating_noise < math.inf
                and 0.0 < preference_noise < math.inf):
            raise ValueError(
                "rating_noise must be finite and >= 0 and preference_noise "
                f"finite and > 0, got {rating_noise!r} and {preference_noise!r}")
        self.rating_noise = rating_noise
        self.preference_noise = preference_noise
        self._rng = make_rng(stable_hash("feedback", seed))

    def thumbs(self, quality: float) -> bool:
        """Thumbs-up / thumbs-down for one response."""
        observed = quality + self._rng.normal(0.0, self.rating_noise)
        return bool(observed >= THUMBS_UP_THRESHOLD)

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
