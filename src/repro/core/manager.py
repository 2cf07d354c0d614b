"""The Example Manager (section 4.3): admission, bookkeeping, eviction.

* **Admission**: new request-response pairs are sanitized (PII scrub),
  near-duplicates are rejected, and the pair is stored in plaintext.
* **Bookkeeping**: every repurposing updates the example's G(e) gain EMA and
  its offload-success value; a 0.9-per-hour decay discounts stale usage.
* **Eviction**: under a byte budget, retention is the 0/1 knapsack of
  section 4.3 — weight = plaintext size, value = decayed offload gain —
  solved by the greedy with the best-single fix-up on the cache table's
  live columns, in row order, on every over-budget admission.
* **Replay**: delegated to :class:`repro.core.replay.ReplayEngine`,
  typically invoked off-peak by the service.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from repro.analysis.knapsack import knapsack_victims
from repro.core.cache import ExampleCache
from repro.core.config import ManagerConfig
from repro.core.example import Example
from repro.core.replay import ReplayEngine, replay_gain
from repro.core.table import INSERTION_RANK, attached_rows
from repro.llm.model import GenerationResult
from repro.privacy.sanitizer import sanitize_text
from repro.utils.clock import SimClock
from repro.vectorstore.flat import _EPS
from repro.workload.request import Request

DECAY_FACTOR = 0.9            # section 4.3: gains decay by 0.9 ...
DECAY_PERIOD_S = 3600.0       # ... per hour
ADMISSION_DEDUPE_SIM = 0.99   # skip admission above this similarity


class ExampleManager:
    """Curates the example cache over time (section 4.3).

    Owns the admission, decay, knapsack-eviction, and replay lifecycle of
    Fig. 5's Example Manager box.
    """

    def __init__(self, cache: ExampleCache, config: ManagerConfig | None = None,
                 clock: SimClock | None = None,
                 replay_engine: ReplayEngine | None = None) -> None:
        self.cache = cache
        self.config = config or ManagerConfig()
        self.clock = clock or SimClock()
        self.replay_engine = replay_engine
        self._last_decay = self.clock.now
        # A plain int rather than itertools.count: the position is part of
        # the manager's durable state (snapshots save and restore it, and a
        # Checkpointer journals it, so example ids never collide across a
        # warm restart).
        self._next_id = 0
        self.admitted = 0
        self.rejected_duplicates = 0
        self.evictions = 0

    def _group(self):
        """The attached journal's ``group()``: one operation's records leave
        in one write, which a ``Checkpointer`` closes with the counters if
        they moved.  A bare callable takes the records one by one."""
        return getattr(self.cache.journal, "group", nullcontext)()

    # -- admission ----------------------------------------------------------

    def admit(self, request: Request, result: GenerationResult,
              embedding, source_cost: float) -> Example | None:
        """Try to add a served request-response pair to the cache.

        Returns the new example, or ``None`` when rejected (near-duplicate).
        ``source_cost`` is the normalized cost of the model that produced the
        response; it feeds both proxy features and the G(e) formula.
        """
        # Refused before the dedupe probe: no id minted, nothing journaled.
        if embedding.shape != (self.cache.dim,) or not \
                _EPS <= math.sqrt(embedding.dot(embedding)) < math.inf:
            raise ValueError("cannot admit this embedding's shape or norm")
        with self._group():
            if self.cache.nearest_similarity(embedding) \
                    >= ADMISSION_DEDUPE_SIM:
                self.rejected_duplicates += 1
                return None
            response_text = result.text
            if self.config.sanitize:
                response_text = sanitize_text(response_text)
                request.text = sanitize_text(request.text)
            example_number = self._next_id
            self._next_id += 1
            # Written once, straight into the pool's next free row.
            example = self.cache.add_new(
                example_id=f"ex-{example_number}-{request.request_id}",
                request=request,
                response_text=response_text,
                embedding=embedding,
                quality=result.quality,
                source_model=result.model_name,
                source_cost=source_cost,
                created_at=self.clock.now,
            )
            self.admitted += 1
            self.enforce_capacity()
            return example

    # -- bookkeeping ----------------------------------------------------------

    def record_use(self, example: Example, response_quality: float,
                   model_cost: float, offloaded: bool) -> None:
        """Update an example's stats after it augmented a served request."""
        example.record_use(replay_gain(response_quality, model_cost),
                           response_quality, 1.0 if offloaded else 0.0)
        self._maybe_decay()

    def apply_decay(self) -> None:
        """Apply any elapsed decay periods now.

        Decay normally piggybacks on :meth:`record_use`; online maintenance
        (the runtime's maintenance tick) calls this directly so gain
        statistics go stale on schedule even when an example sees no
        repurposing traffic between ticks.  With a journal attached the
        pass additionally records a ``clock`` mark, so WAL recovery restores
        the maintenance-advanced clock even when no whole period elapsed.
        """
        self._maybe_decay()
        journal = self.cache.journal
        if journal is not None:
            journal("clock", {"now": self.clock.now})

    def _maybe_decay(self) -> None:
        """Apply the hourly 0.9 decay to every example's gain statistics.

        One vectorized ``values *= factor ** periods`` over the cache
        table's two gain columns — bit-identical to a per-object
        ``EMA.decay`` loop (``tests/test_core_table_properties.py`` pins
        the equivalence).
        """
        elapsed = self.clock.now - self._last_decay
        periods = elapsed / DECAY_PERIOD_S
        if periods >= 1.0:
            self.decay_periods(int(periods))

    def decay_periods(self, periods: int) -> None:
        """Decay the gain statistics by ``periods`` whole periods and
        journal it: the live pass and WAL redo (which runs with no
        journal attached) share this one spelling."""
        self.cache.table.decay_gains(DECAY_FACTOR, periods)
        self._last_decay += periods * DECAY_PERIOD_S
        journal = self.cache.journal
        if journal is not None:
            journal("decay", {"periods": periods})

    # -- eviction ----------------------------------------------------------

    def enforce_capacity(self) -> int:
        """Evict down to the byte budget via the retention knapsack.

        Returns the number of evicted examples.  No-op when the cache is
        within budget or the budget is unbounded.  Otherwise the kernel
        gets the table's weight and value columns as they lie, with the
        insertion rank to break ties the way cache-insertion order would;
        a full cache one admission over budget ranks a handful of rows
        (see :mod:`repro.analysis.knapsack`), and the evicted rows map
        back to ids through the table's owners.
        """
        capacity = self.config.capacity_bytes
        if capacity is None or self.cache.total_bytes <= capacity:
            return 0
        # Live columns in table-row order, the insertion rank breaking ties
        # as cache-insertion order would; no per-example Python runs on the
        # kept set.  Value: decayed offload successes, with access count as
        # a small tiebreaker and a floor so fresh examples can prove
        # themselves before they go.
        table = self.cache.table
        values = table.col("offload_gain__value") * (
            1 + table.col("access_count"))
        values += 1e-3
        # One journaled remove at a time, oldest first: recovery replays
        # the WAL record sequence and the swap-delete history it implies.
        # Ids are resolved up front — each remove moves a row.
        evicted = [table.owner(row).example_id for row in knapsack_victims(
            table.col("plaintext_bytes"), values, capacity,
            table.col(INSERTION_RANK))]
        with self._group():
            for example_id in evicted:
                self.cache.remove(example_id)
                self.evictions += 1
        return len(evicted)

    # -- replay ----------------------------------------------------------

    def run_replay(self, expected_reuse: float = 20.0):
        """Run one off-peak replay pass (requires a configured engine).

        With a journal attached, every replayed example is recorded as one
        ``replay_rewrite`` record carrying the refined fields *and* the
        teacher's decode-count for the example's request — replay harvests
        decode-sampling variance, so a recovered service must resume the
        teacher's sample sequence at the same position or a later replay of
        the same example would draw different responses.
        """
        if self.replay_engine is None:
            raise RuntimeError("no replay engine configured on this manager")
        table = self.cache.table
        outcome = self.replay_engine.run(table, expected_reuse=expected_reuse)
        replayed = outcome.examples
        journal = self.cache.journal
        if journal is not None and replayed:
            teacher = self.replay_engine.teacher
            # Records go out in cache-insertion order, not replay order.
            rank = table.col(INSERTION_RANK)[attached_rows(replayed)[1]]
            with self._group():
                for position in np.argsort(rank).tolist():
                    example = replayed[position]
                    request_id = example.request.request_id
                    journal("replay_rewrite", {
                        "example": example,
                        "teacher_decode_counts": {
                            request_id: teacher.decode_count(request_id)
                        },
                    })
        return outcome
