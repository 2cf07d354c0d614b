"""Cost-aware example replay (section 4.3).

Replaying an example re-queries its original request several times on a
strong model and keeps the best response, harvesting decode-sampling variance
to raise the example's downstream utility.  Replay runs offline (off-peak);
the engine decides *which* examples are worth the generation cost:

    G(e) = (1 - normalized_response_quality) * normalized_model_cost

accumulated per repurposing into an EMA.  Examples are ranked by G(e) and
replayed until the marginal expected saving drops below the one-time replay
cost — the online cut-off of section 4.3.  Per section 5, examples that have
been through five replay iterations are filtered out of further replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ManagerConfig
from repro.core.example import Example
from repro.core.table import INSERTION_RANK, ExampleTable
from repro.llm.model import SimulatedLLM


def replay_gain(response_quality: float, model_cost: float) -> float:
    """G(e): potential gain from refining an example (both inputs in [0, 1]).

    High when requests augmented by this example still produce low-quality
    responses and/or still land on expensive models.
    """
    if not 0.0 <= response_quality <= 1.0:
        raise ValueError(f"response_quality must be in [0, 1]: {response_quality}")
    if not 0.0 <= model_cost <= 1.0:
        raise ValueError(f"model_cost must be in [0, 1]: {model_cost}")
    return (1.0 - response_quality) * model_cost


@dataclass
class ReplayOutcome:
    """Result of one replay pass over the cache."""

    replayed: int
    improved: int
    skipped_budget: int
    total_quality_gain: float
    #: The examples replayed, in replay order (what a journal must record).
    examples: list[Example] = field(default_factory=list)


class ReplayEngine:
    """Selects and replays high-gain examples on the teacher model.

    Section 4.3's off-peak refinement loop: examples with high accumulated
    G(e) are re-generated on the large model (best-of-``replay_samples``),
    subject to the cost-aware cut-off and the <=5-iteration filter of
    section 5.
    """

    def __init__(self, teacher: SimulatedLLM,
                 config: ManagerConfig | None = None) -> None:
        self.teacher = teacher
        self.config = config or ManagerConfig()

    def candidates(self,
                   examples: list[Example] | ExampleTable) -> list[Example]:
        """Replay candidates ranked by accumulated G(e), highest first.

        Examples past the replay-iteration cap are excluded (section 5's
        outlier filter), as are examples never repurposed (gain unknown).
        Equal gains keep the order given; for an :class:`ExampleTable` —
        the whole pool, filtered and ranked from three columns with no
        per-example Python — that is insertion order.
        """
        if isinstance(examples, ExampleTable):
            table = examples
            rows = np.flatnonzero(
                (table.col("replay_count") < self.config.replay_max_iterations)
                & table.col("gain_ema__initialized"))
            rows = rows[np.argsort(table.col(INSERTION_RANK)[rows])]
            ranked = rows[np.argsort(-table.col("gain_ema__value")[rows],
                                     kind="stable")]
            return [table.owner(row) for row in ranked.tolist()]
        eligible = [
            ex for ex in examples
            if ex.replay_count < self.config.replay_max_iterations
            and ex.gain_ema.initialized
        ]
        return sorted(eligible, key=lambda ex: ex.gain_ema.value, reverse=True)

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

    def run(self, examples: list[Example] | ExampleTable,
            expected_reuse: float = 20.0) -> ReplayOutcome:
        """One offline replay pass with the cost-aware cut-off.

        An example is replayed while its expected saving — accumulated gain
        times expected future reuse — exceeds the one-time replay cost.  The
        ranking guarantees the pass stops at the first unprofitable example.
        """
        if expected_reuse <= 0:
            raise ValueError(f"expected_reuse must be positive: {expected_reuse}")
        improved = skipped = 0
        total_gain = 0.0
        replayed: list[Example] = []
        for example in self.candidates(examples):
            expected_saving = example.gain_ema.value * expected_reuse
            if expected_saving <= self.config.replay_cost_per_example:
                skipped += 1
                break  # ranked descending: everything after is unprofitable
            gain = self.replay_one(example)
            replayed.append(example)
            if gain > 0:
                improved += 1
                total_gain += gain
        return ReplayOutcome(
            replayed=len(replayed),
            improved=improved,
            skipped_budget=skipped,
            total_quality_gain=total_gain,
            examples=replayed,
        )
