"""The in-context-learning (ICL) boost model.

This encodes the paper's central empirical claims about prepending
historical request-response pairs (section 2.3, Fig. 4):

* a *relevant* example whose stored response is *better than what the target
  model would produce alone* transfers knowledge — quality rises;
* irrelevant ("random") examples distract — quality falls;
* gains saturate: adding ever more examples yields diminishing returns
  (section 4.1, "including too many yields diminishing quality improvements");
* an augmented small model can slightly exceed the large model (win rates of
  50-60% in Fig. 13/16/17) but not by an unbounded margin — the boost is
  capped just above the best example's own quality.

Per-example contribution:

    headroom     = max(0, example_quality - base_quality)
    gated_rel    = smoothstep(relevance between REL_GATE and REL_FULL)
    contribution = gated_rel * headroom

Total boost:

    boost = min(cap, MAX_BOOST * (1 - exp(-sum(contributions) / SATURATION)))
            - DISTRACTION_PENALTY * (# examples with relevance < DISTRACT_GATE)

where ``cap`` keeps the final quality at most ``EXCEED_MARGIN`` above the
best relevant example (imitation can out-perform the teacher a little, not a
lot).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.embedding.similarity import (
    cosine_from_norms,
    cosine_similarity,
    vector_norm,
)

_FLOAT64 = np.dtype(np.float64)

# Calibrated constants (see module docstring for roles), read at each call.
REL_GATE = 0.55            # below this, an example cannot help
REL_FULL = 0.95            # above this, relevance gating is fully open
DISTRACT_GATE = 0.30       # below this, an example actively hurts
DISTRACTION_PENALTY = 0.03 # quality loss per distracting example
MAX_BOOST = 0.40           # asymptotic ceiling of the ICL gain
SATURATION = 0.18          # how quickly contributions saturate
EXCEED_MARGIN = 0.01       # how far imitation may exceed the teacher example
TRANSFER_EFFICIENCY = 0.65 # fraction of teacher headroom that transfers


class ExampleView(NamedTuple):
    """The minimal view of a cached example the ICL model needs.

    ``quality`` is the latent quality of the example's stored response;
    ``tokens`` its prompt-length contribution (used by the latency model,
    carried here so one object serves both); ``latent_norm`` its
    :func:`latent_norm`, if the maker holds it.  Immutable and cheap.
    """

    latent: np.ndarray
    quality: float
    tokens: int
    latent_norm: float | None = None


def latent_norm(latent: np.ndarray) -> float:
    """Boost's divisor: ``vector_norm`` of float64, else numpy's own norm."""
    return vector_norm(latent) if latent.dtype is _FLOAT64 \
        else float(np.linalg.norm(latent))


def _smoothstep(x: float) -> float:
    """C1-smooth ramp from 0 to 1 over [0, 1]."""
    # min(1.0, max(0.0, x)), as the two comparisons those builtins make.
    t = x if x > 0.0 else 0.0
    t = t if t < 1.0 else 1.0
    return t * t * (3.0 - 2.0 * t)


def example_utility(request_latent: np.ndarray, example: ExampleView,
                    base_quality: float) -> float:
    """Ground-truth helpfulness of one example for one request+model.

    This is the quantity the paper's proxy model *estimates* (section 4.1);
    the simulation also uses it directly to compute the realized boost.
    Negative values mean the example distracts.
    """
    relevance = cosine_similarity(request_latent, example.latent)
    if relevance < DISTRACT_GATE:
        return -DISTRACTION_PENALTY
    gate = _smoothstep((relevance - REL_GATE) / (REL_FULL - REL_GATE))
    headroom = max(0.0, example.quality - base_quality)
    return gate * headroom


def icl_boost(request_latent: np.ndarray, examples: list[ExampleView],
              base_quality: float) -> float:
    """Quality delta from prepending ``examples`` (may be negative): the
    per-example utilities aggregated under saturation and the imitation cap."""
    if not examples:
        return 0.0
    positive_sum = 0.0
    distraction = 0.0
    best_teacher = 0.0
    # Inlined :func:`example_utility` with the latent norms hoisted (the
    # request's out of the loop, a cached example's into its view) and
    # one cosine per example instead of two.  Scalar
    # numpy and the min/max builtins are written out as the IEEE
    # operations and comparisons they perform, so every float result is
    # unchanged (``tests/hotpath_reference.py`` keeps the old form).
    q = np.asarray(request_latent, dtype=float)
    qnorm = vector_norm(q)
    for example in examples:
        latent, norm = example.latent, example.latent_norm
        relevance = cosine_from_norms(q, latent, qnorm * (
            latent_norm(latent) if norm is None else norm))
        if relevance < DISTRACT_GATE:
            distraction += DISTRACTION_PENALTY
            continue
        gate = _smoothstep((relevance - REL_GATE) / (REL_FULL - REL_GATE))
        quality = example.quality
        headroom = quality - base_quality
        if headroom > 0.0:
            positive_sum += gate * headroom
        if relevance >= REL_GATE and quality > best_teacher:
            best_teacher = quality

    # Imitation cap: the augmented model approaches (and may slightly
    # exceed) the best relevant teacher example, but cannot leapfrog it;
    # without a relevant teacher there is no gain at all.
    gain = 0.0
    if best_teacher > 0.0:
        gain = MAX_BOOST * (1.0 - float(np.exp(-positive_sum / SATURATION)))
        cap = TRANSFER_EFFICIENCY * (best_teacher - base_quality) \
            + EXCEED_MARGIN
        if not cap > 0.0:
            cap = 0.0
        if cap < gain:
            gain = cap
    return float(gain - distraction)
