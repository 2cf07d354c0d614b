"""The two-stage Example Selector (section 4.1, Algorithm 1 lines 7-13).

Stage 1 narrows the pool by relevance on the clustered index; stage 2 scores
each candidate with the helpfulness proxy.  Combination selection then
applies a *dynamic utility threshold* (adapted online from sampled requests),
a diversity penalty so near-duplicate examples don't crowd the prompt, and a
context-token budget.  Selected examples are ordered ascending by utility so
the strongest example sits closest to the question (the ordering effect the
ICL literature reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import ExampleCache
from repro.core.config import SelectorConfig
from repro.core.example import Example
from repro.core.proxy import HelpfulnessProxy, stage2_columns
from repro.core.table import EMBEDDING, attached_rows
from repro.embedding.similarity import cosine_from_norms

INITIAL_UTILITY_THRESHOLD = 0.02      # before the first adaptation
THRESHOLD_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)  # what adaptation picks
ADAPT_EVERY = 200                     # requests between adaptations
DIVERSITY_WEIGHT = 0.3                # redundancy penalty in a combination
TOKEN_COST_WEIGHT = 5e-5              # utility per prompt token, to adapt


@dataclass
class ScoredExample:
    """One selected example with its selection-time scores.

    ``relevance`` is the stage-1 cosine similarity, ``utility`` the stage-2
    helpfulness-proxy estimate (section 4.1, Algorithm 1 lines 7-13).
    """

    example: Example
    relevance: float
    utility: float


class ExampleSelector:
    """Selects an example combination for each request (section 4.1).

    Single-request path: :meth:`select`.  Batched path: :meth:`select_batch`
    amortizes stage-1 retrieval across a micro-batch for the serving engine;
    stage 2 scores a decision batch (one request is a batch of one) at once.
    """

    def __init__(self, cache: ExampleCache, proxy: HelpfulnessProxy,
                 config: SelectorConfig | None = None) -> None:
        self.cache = cache
        self.proxy = proxy
        self.config = config or SelectorConfig()
        self.utility_threshold = INITIAL_UTILITY_THRESHOLD
        self._requests_seen = 0
        # Rolling sample of (utility, tokens) pairs used by threshold
        # adaptation; bounded so memory stays constant.
        self._recent_scored: list[tuple[float, int]] = []

    def select(self, request_embedding: np.ndarray) -> list[ScoredExample]:
        """The example combination for a request (possibly empty)."""
        candidates = self.cache.search(request_embedding, self.config.pre_k)
        return self._decide(request_embedding, [candidates])[0]

    def select_batch(self, request_embeddings: np.ndarray
                     ) -> list[list[ScoredExample]]:
        """Example combinations for a micro-batch of requests: stage 1 as
        one batched index query, each request's answer bit for bit
        :meth:`select`'s."""
        embeddings = np.atleast_2d(np.asarray(request_embeddings, dtype=float))
        return self._decide(embeddings,
                            self.cache.search_batch(embeddings,
                                                    self.config.pre_k))

    # -- stage 2 (proxy helpfulness), then the combinations ---------------

    def _decide(self, embeddings: np.ndarray,
                stage1: list[list[tuple[Example, float]]]
                ) -> list[list[ScoredExample]]:
        """Stage 2 once for the batch (rows resolved, one proxy call over the
        flat candidate list), then per request in arrival order what carries
        state: threshold cadence, rolling sample, combination, accesses."""
        examples = [example for candidates in stage1
                    for example, _ in candidates]
        counts = [len(candidates) for candidates in stage1]
        attached = attached_rows(examples)
        utilities = self.proxy.score_batch(embeddings, examples, counts,
                                           attached=attached).tolist()
        cols, rows = stage2_columns(examples, attached)
        vectors, slots = cols[EMBEDDING], rows.tolist()
        token_counts = cols["tokens"][rows].tolist()
        norms = cols["embedding_norm"][rows].tolist()
        # Size the rolling window in whole queries (pre_k candidates each) so
        # it always spans several requests' full candidate lists — trimming
        # mid-query would bias the sample toward low-relevance tails.
        window = 10 * self.config.pre_k
        combinations: list[list[ScoredExample]] = []
        end = 0
        for candidates, count in zip(stage1, counts):
            start, end = end, end + count
            self._requests_seen += 1
            if self._requests_seen % ADAPT_EVERY == 0:
                self._adapt_threshold()
            self._recent_scored.extend(zip(utilities[start:end],
                                           token_counts[start:end]))
            if len(self._recent_scored) > 2 * window:
                self._recent_scored = self._recent_scored[-window:]
            chosen = self._combine(utilities, token_counts, vectors, slots,
                                   norms, start, end)
            if attached is not None:
                attached[0].record_access([slots[i] for i in chosen])
            else:
                for i in chosen:
                    examples[i].record_access()
            # Ascending utility: strongest example ends up adjacent to the
            # query (ties keep selection order, as a stable sort would).
            combinations.append([
                ScoredExample(examples[i], candidates[i - start][1], utility)
                for utility, _, i in sorted(
                    [(utilities[i], n, i) for n, i in enumerate(chosen)])])
        return combinations

    # -- combination selection --------------------------------------------

    def _combine(self, utilities: list[float], token_counts: list[int],
                 vectors, slots, norms, start: int, end: int) -> list[int]:
        """Positions in ``[start, end)`` of the chosen combination, in pick
        order (candidate ``i``'s embedding is ``vectors[slots[i]]``)."""
        threshold = self.utility_threshold
        config = self.config
        room = config.max_examples
        budget = config.context_budget_tokens
        chosen: list[int] = []
        geometry: list[tuple[np.ndarray, float]] = []   # of the chosen
        for _, i in sorted([(-utilities[i], i) for i in range(start, end)
                            if utilities[i] >= threshold]):
            if not room:
                break
            if token_counts[i] > budget:
                continue
            # Diversity: discount utility by similarity to already-chosen
            # examples; a redundant near-duplicate adds tokens, not signal.
            # Only redundancy above 0.9 counts: the running max starts there.
            embedding, norm = vectors[slots[i]], norms[i]
            redundancy = 0.9
            for other, other_norm in geometry:
                similarity = cosine_from_norms(embedding, other,
                                               norm * other_norm)
                if similarity > redundancy:
                    redundancy = similarity
            effective = utilities[i]
            if redundancy > 0.9:
                effective -= DIVERSITY_WEIGHT * (redundancy - 0.9)
            if effective < threshold:
                continue
            chosen.append(i)
            geometry.append((embedding, norm))
            room -= 1
            budget -= token_counts[i]
        return chosen

    # -- dynamic threshold adaptation -------------------------------------

    def _adapt_threshold(self) -> None:
        """Pick the grid threshold maximizing net utility on recent samples.

        Net utility of admitting an example = its estimated helpfulness minus
        the token cost of carrying it in the prompt (section 4.1's "the number
        of selected examples is both query- and example-dependent").
        """
        if not self._recent_scored:
            return
        best_threshold = self.utility_threshold
        best_net = float("-inf")
        # Evaluate high thresholds first so ties resolve toward admitting
        # fewer examples (same net utility at lower prompt cost).
        for threshold in sorted(THRESHOLD_GRID, reverse=True):
            # Builtin sum on purpose: this figure has always been one, and
            # its algorithm is the interpreter's (compensated from 3.12).
            net = sum([
                utility - TOKEN_COST_WEIGHT * tokens
                for utility, tokens in self._recent_scored
                if utility >= threshold
            ])
            if net > best_net:
                best_net = net
                best_threshold = threshold
        self.utility_threshold = best_threshold
