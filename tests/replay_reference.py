"""Example replay as it was before it compared samples by quality alone,
kept verbatim as the bit-equality oracle.

:meth:`repro.core.replay.ReplayEngine.replay_one` draws each sample's
quality from the teacher's shared draw (``SimulatedLLM.sample_quality``)
and renders text only for a winner.  :func:`replay_one` here is the body it
replaced: every sample a full ``generate`` — tokens, latency, cost and the
response text — and the example's quality and text rebound whether or not
a sample won.  ``tests/test_replay_quality_only.py`` runs a maintenance
tick on twin journaled services, one with this monkeypatched in, and
requires equal table columns, texts, teacher decode counts and WAL bytes.
"""

from __future__ import annotations

from repro.core.example import Example


def replay_one(self, example: Example) -> float:
    """Replay a single example; returns the quality improvement (>= 0)."""
    best_quality = example.quality
    best_text = example.response_text
    for _ in range(self.config.replay_samples):
        result = self.teacher.generate(example.request)
        if result.quality > best_quality:
            best_quality = result.quality
            best_text = result.text
    improvement = best_quality - example.quality
    example.quality = best_quality
    example.response_text = best_text
    example.replay_count += 1
    # Refinement resets accumulated potential: the gain was realized.
    example.gain_ema.decay(0.0)
    return improvement
