"""The latent response-quality model.

Every generation produces a scalar quality in [0, 1]:

    quality = clip( base(capability, difficulty) + icl_boost + decode_noise )

``base`` captures the paper's Fig. 1 observation — larger models answer
harder requests better — via a difficulty penalty that grows as capability
shrinks:

    base = capability - difficulty * (PENALTY_CEILING - capability)

With PENALTY_CEILING = 1.35, a capability-0.80 model loses 0.55 * difficulty
while a capability-0.55 model loses 0.80 * difficulty, so the quality gap
between model sizes widens on hard requests and nearly closes on easy ones
(exactly the regime in which offloading is safe).

``decode_noise`` models token-sampling stochasticity.  Its magnitude (0.08)
makes repeated generations of the same request visibly heterogeneous, which
is the variance the Example Manager's replay mechanism harvests (section 4.3,
"recent LLM advances reveal large variance in response quality").
"""

from __future__ import annotations

import numpy as np

# Calibrated constants — shared by every experiment.
PENALTY_CEILING = 1.35   # see module docstring
DECODE_NOISE_STD = 0.08  # token-sampling variance in quality units

# Per-(model, request) aptitude: different models are good at different
# prompts, independent of size.  This is what lets a small model outright win
# a sizable minority of comparisons even while losing on average — the paper's
# win rates (e.g. Gemma-2-2B at ~41% on MS MARCO, Table 2) are impossible
# without it.  Deterministic per (model, request), so repeated generations of
# the same request share the same aptitude but differ in decode noise.
APTITUDE_STD = 0.12


def clip_unit(x: float) -> float:
    """``float(np.clip(x, 0.0, 1.0))`` of a Python float, bit for bit:
    like numpy's, the comparisons keep ``x`` on ties (``-0.0`` stays
    ``-0.0``) and pass NaN through."""
    if x > 1.0:
        return 1.0
    if x < 0.0:
        return 0.0
    return x


class QualityModel:
    """Maps (capability, difficulty, icl boost) to response quality."""

    def __init__(self, penalty_ceiling: float = PENALTY_CEILING,
                 noise_std: float = DECODE_NOISE_STD) -> None:
        if penalty_ceiling <= 1.0:
            raise ValueError(
                f"penalty_ceiling must exceed 1.0 so weaker models are "
                f"penalized more, got {penalty_ceiling}"
            )
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        self.penalty_ceiling = penalty_ceiling
        self.noise_std = noise_std

    def base_quality(self, capability: float, difficulty: float) -> float:
        """Deterministic quality before ICL boost and decode noise."""
        if not 0.0 < capability <= 1.0:
            raise ValueError(f"capability must be in (0, 1], got {capability}")
        if not 0.0 <= difficulty <= 1.0:
            raise ValueError(f"difficulty must be in [0, 1], got {difficulty}")
        penalty = difficulty * (self.penalty_ceiling - capability)
        return clip_unit(capability - penalty)

    def sample_quality(self, base: float, icl_boost: float,
                       rng: np.random.Generator) -> float:
        """One stochastic generation's quality around a precomputed base.

        ``base`` already includes the model's per-request aptitude (see
        :data:`APTITUDE_STD`); this adds the ICL boost and decode noise.
        """
        noise = rng.normal(0.0, self.noise_std) if self.noise_std > 0 else 0.0
        return clip_unit(base + icl_boost + noise)
