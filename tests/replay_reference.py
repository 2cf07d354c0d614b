"""Example replay as it was before it ran on the table's columns and
compared samples by quality alone, kept verbatim as the bit-equality oracle.

:meth:`repro.core.replay.ReplayEngine.replay_one` draws each sample's
quality from the teacher's shared draw (``SimulatedLLM.sample_quality``)
and renders text only for a winner.  :func:`replay_one` here is the body it
replaced: every sample a full ``generate`` — tokens, latency, cost and the
response text — and the example's quality and text rebound whether or not
a sample won.  ``tests/test_replay_quality_only.py`` runs a maintenance
tick on twin journaled services, one with this monkeypatched in, and
requires equal table columns, texts, teacher decode counts and WAL bytes.

:func:`candidates` and :func:`run` are the engine's per-object pass over a
list of examples: each example's G(e) read on its own, a stable
``sorted(..., reverse=True)`` for the ranking, and the cost cut-off on the
per-example value.  ``tests/test_replay_columns.py`` requires the
columnar ``ReplayEngine.candidates(table)`` / ``run(table)`` to pick the
same examples in the same order and leave equal columns.  The EMA
arithmetic, the gain reset included, is :mod:`tests.ema_reference`'s.
"""

from __future__ import annotations

from repro.core import replay as replay_module
from repro.core.example import Example
from repro.core.replay import ReplayOutcome
from tests.ema_reference import streams, write_streams


def replay_one(self, example: Example) -> float:
    """Replay a single example; returns the quality improvement (>= 0)."""
    best_quality = example.quality
    best_text = example.response_text
    for _ in range(replay_module.REPLAY_SAMPLES):
        result = self.teacher.generate(example.request)
        if result.quality > best_quality:
            best_quality = result.quality
            best_text = result.text
    improvement = best_quality - example.quality
    example.quality = best_quality
    example.response_text = best_text
    example.replay_count += 1
    # Refinement resets accumulated potential: the gain was realized.
    gain = streams(example)["gain_ema"]
    gain.decay(0.0)
    write_streams(example, {"gain_ema": gain})
    return improvement


def candidates(self, examples: list[Example]) -> list[Example]:
    """Replay candidates ranked by accumulated G(e), highest first; equal
    gains keep the order given."""
    eligible = [
        ex for ex in examples
        if ex.replay_count < replay_module.REPLAY_MAX_ITERATIONS
        and streams(ex)["gain_ema"].initialized
    ]
    return sorted(eligible, key=lambda ex: streams(ex)["gain_ema"].value,
                  reverse=True)


def run(self, examples: list[Example],
        expected_reuse: float = 20.0) -> ReplayOutcome:
    """One replay pass over ``examples`` with the cost-aware cut-off."""
    improved = skipped = 0
    total_gain = 0.0
    replayed: list[Example] = []
    for example in candidates(self, examples):
        expected_saving = streams(example)["gain_ema"].value * expected_reuse
        if expected_saving <= replay_module.REPLAY_COST_PER_EXAMPLE:
            skipped += 1
            break  # ranked descending: everything after is unprofitable
        gain = replay_one(self, example)
        replayed.append(example)
        if gain > 0:
            improved += 1
            total_gain += gain
    return ReplayOutcome(replayed=len(replayed), improved=improved,
                         skipped_budget=skipped,
                         total_quality_gain=total_gain, examples=replayed)
