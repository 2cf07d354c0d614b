"""Differentially-private synthetic example pool (section 4.3, Fig. 21).

The strict-privacy deployment replaces the raw historical cache with
DP-synthesized examples.  The synthesizer here applies the Gaussian mechanism
to each example's latent semantics and re-renders template text, then marks
the synthetic example with a small quality discount — DP noise blurs exactly
the topical precision that makes an example a good teacher, which is the
"slight quality decrease" Fig. 21 measures.

Privacy accounting uses the classic Gaussian-mechanism calibration
sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon per released vector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.example import Example
from repro.utils.rng import make_rng, stable_hash

DELTA = 1e-5              # the (epsilon, delta)-DP budget's delta
QUALITY_DISCOUNT = 0.05   # mean quality a synthetic example loses


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float = 1.0) -> float:
    """Noise scale of the Gaussian mechanism for (epsilon, delta)-DP.

    ``epsilon`` must be positive and finite: a NaN would make every noised
    vector NaN, and an infinite budget means no noise at all."""
    if not 0 < epsilon < math.inf or not 0 < delta < 1:
        raise ValueError(f"invalid privacy budget: epsilon={epsilon}, delta={delta}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


class DPSynthesizer:
    """Synthesizes a DP example pool from an existing cache's examples."""

    def __init__(self, epsilon: float = 4.0, seed: int = 0) -> None:
        self.epsilon = epsilon
        self.sigma = gaussian_sigma(epsilon, DELTA)
        self._rng = make_rng(stable_hash("dp-synth", seed))

    def synthesize(self, examples: list[Example]) -> list[Example]:
        """A DP pool: one synthetic example per original (same pool size)."""
        return [self._synthesize_one(ex, i) for i, ex in enumerate(examples)]

    def _synthesize_one(self, original: Example, index: int) -> Example:
        # Latents are unit vectors, so per-example L2 sensitivity is bounded
        # by 2; scale to the embedding dimension.
        dim = original.request.latent.shape[0]
        noise = self._rng.normal(0.0, self.sigma / math.sqrt(dim), size=dim)
        latent = original.request.latent + noise
        latent = latent / max(1e-12, float(np.linalg.norm(latent)))

        emb_noise = self._rng.normal(
            0.0, self.sigma / math.sqrt(dim), size=original.embedding.shape
        )
        embedding = original.embedding + emb_noise
        embedding = embedding / max(1e-12, float(np.linalg.norm(embedding)))

        # A fresh arrival and no metadata: the tenant is not synthesized.
        request = dataclasses.replace(
            original.request,
            request_id=f"dp-{index}-{original.request.request_id}",
            text=f"[dp-synthetic] {original.request.text}", latent=latent,
            arrival_time=0.0, metadata={})
        quality = float(np.clip(
            original.quality - self._rng.uniform(0, 2 * QUALITY_DISCOUNT),
            0.0, 1.0,
        ))
        return Example(
            example_id=f"dp-{index}",
            request=request,
            response_text=f"[dp-synthetic] {original.response_text}",
            embedding=embedding,
            quality=quality,
            source_model=original.source_model,
            source_cost=original.source_cost,
            created_at=original.created_at,
        )
