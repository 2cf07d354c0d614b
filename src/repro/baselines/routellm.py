"""RouteLLM baseline (Ong et al.): classifier-based model routing.

RouteLLM trains a binary classifier on preference data to predict whether
the small model suffices for a request, then thresholds that score.  Two
properties distinguish it from IC-Cache's router (section 6.2):

* it is *load-oblivious* — the threshold never reacts to serving load;
* it judges the bare request — it knows nothing about in-context examples,
  so it cannot anticipate augmentation lifting the small model.

The reproduction models the trained classifier as a logistic score over the
request's observable difficulty, fit offline on labeled comparisons (the
same data a real RouteLLM deployment would use).
"""

from __future__ import annotations

import numpy as np

from repro.core.router import RoutingChoice, plain_choice
from repro.utils.rng import make_rng, stable_hash
from repro.workload.request import Request

CLASSIFIER_NOISE = 0.05   # std of the classifier's error on its score


class RouteLLMRouter:
    """Difficulty-threshold binary router, a ``RoutingPolicy``."""

    def __init__(self, small_model: str, large_model: str,
                 threshold: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.small_model = small_model
        self.large_model = large_model
        self.threshold = threshold
        self._rng = make_rng(stable_hash("routellm", seed))

    def win_probability(self, request: Request) -> float:
        """Classifier score: P(small model suffices) for this request.

        Logistic in the request's estimated difficulty, with classifier error
        modeled as noise — real classifiers are imperfect too.
        """
        difficulty = request.observable_difficulty()
        score = 1.0 / (1.0 + np.exp(6.0 * (difficulty - 0.5)))
        if CLASSIFIER_NOISE > 0:
            score += self._rng.normal(0.0, CLASSIFIER_NOISE)
        return float(np.clip(score, 0.0, 1.0))

    def route(self, ctx) -> RoutingChoice:
        """Pick a model from the bare request.

        Load-oblivious and context-blind by construction (section 6.2):
        ``ctx.load`` and ``ctx.examples`` never reach the classifier.
        """
        small = self.win_probability(ctx.request) >= self.threshold
        return plain_choice(self.small_model if small else self.large_model,
                            ctx.request, [])
