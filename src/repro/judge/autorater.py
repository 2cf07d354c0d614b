"""The pairwise autorater."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng, stable_hash

# Maps a latent quality delta to the seven-point scale.  A 0.25 quality gap
# reads as "better" (score ~2 before clipping at the tails averages down);
# calibrated so the model pairs in the zoo reproduce the paper's average
# scores (e.g. Gemini Flash vs Pro around -0.4 on conversation data).
SCORE_GAIN = 2.2
JUDGE_NOISE_STD = 0.8   # per-comparison noise on the seven-point scale
POSITION_BIAS = 0.15    # judges mildly favour the first-listed response
TIE_BAND = 0.3          # |avg score| <= band counts as a tie (paper 6.1)


class Autorater:
    """Scores response pairs on the paper's seven-point protocol.

    ``compare`` runs ``samples_per_order`` comparisons in each input order
    (default 8, i.e. 16 total as in section 6.1) and returns the average
    score from A's perspective.  Scores are integers in [-3, 3] per
    comparison; the average is continuous.
    """

    def __init__(self, name: str = "autorater", samples_per_order: int = 8,
                 seed: int = 0) -> None:
        if samples_per_order < 1:
            raise ValueError(f"samples_per_order must be >= 1: {samples_per_order}")
        self.name = name
        self.samples_per_order = samples_per_order
        self._rng = make_rng(stable_hash("autorater", name, seed))

    def score_once(self, quality_first: float, quality_second: float) -> int:
        """One comparison, first-listed perspective; integer in [-3, 3]."""
        raw = (
            SCORE_GAIN * (quality_first - quality_second)
            + POSITION_BIAS
            + self._rng.normal(0.0, JUDGE_NOISE_STD)
        )
        return int(np.clip(round(raw), -3, 3))

    def compare(self, quality_a: float, quality_b: float) -> float:
        """Average score for A over both orders (order bias cancels)."""
        total = 0.0
        for _ in range(self.samples_per_order):
            total += self.score_once(quality_a, quality_b)       # A listed first
            total += -self.score_once(quality_b, quality_a)      # B listed first
        return total / (2 * self.samples_per_order)

    def verdict(self, quality_a: float, quality_b: float) -> str:
        """'win' / 'tie' / 'loss' for A under the paper's tie band."""
        avg = self.compare(quality_a, quality_b)
        if avg > TIE_BAND:
            return "win"
        if avg < -TIE_BAND:
            return "loss"
        return "tie"
