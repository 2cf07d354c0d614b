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
from repro.core.proxy import HelpfulnessProxy
from repro.core.table import attached_rows
from repro.embedding.similarity import cosine_from_norms


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
    stages 2 and 3 are the same code per request.
    """

    def __init__(self, cache: ExampleCache, proxy: HelpfulnessProxy,
                 config: SelectorConfig | None = None) -> None:
        self.cache = cache
        self.proxy = proxy
        self.config = config or SelectorConfig()
        self.utility_threshold = self.config.utility_threshold
        self._requests_seen = 0
        # Rolling sample of (utility, tokens) pairs used by threshold
        # adaptation; bounded so memory stays constant.
        self._recent_scored: list[tuple[float, int]] = []

    def select(self, request_embedding: np.ndarray) -> list[ScoredExample]:
        """The example combination for a request (possibly empty)."""
        self._requests_seen += 1
        if self._requests_seen % self.config.adapt_every == 0:
            self._adapt_threshold()
        candidates = self.cache.search(request_embedding, self.config.pre_k)
        return self._choose(request_embedding, candidates)

    def select_batch(self, request_embeddings: np.ndarray
                     ) -> list[list[ScoredExample]]:
        """Example combinations for a micro-batch of requests.

        Stage 1 runs as one batched index query (one sgemm per probed
        cluster, where :meth:`select` scores by einsum: same candidates by
        test, scores equal up to the last float32 ulp); stages 2 and 3 run
        per request exactly as in :meth:`select`, identical by construction.
        """
        embeddings = np.atleast_2d(np.asarray(request_embeddings, dtype=float))
        stage1 = self.cache.search_batch(embeddings, self.config.pre_k)
        combinations: list[list[ScoredExample]] = []
        for embedding, candidates in zip(embeddings, stage1):
            self._requests_seen += 1
            if self._requests_seen % self.config.adapt_every == 0:
                self._adapt_threshold()
            combinations.append(self._choose(embedding, candidates))
        return combinations

    # -- stage 2 (proxy helpfulness), then the combination ---------------

    def _choose(self, request_embedding: np.ndarray,
                candidates: list[tuple[Example, float]]) -> list[ScoredExample]:
        # One proxy matrix product scores the whole candidate list (both
        # `select` and `select_batch` land here), replacing a per-candidate
        # predict() loop on the serve hot path.  Candidates stay parallel
        # lists; only the chosen handful become ScoredExample objects.
        examples = [example for example, _ in candidates]
        attached = attached_rows(examples)
        utilities = self.proxy.score_batch(
            request_embedding, examples, attached=attached).tolist()
        if attached is not None:
            table, rows = attached
            token_counts = table.col("tokens")[rows].tolist()
        else:
            token_counts = [example.tokens for example in examples]
        self._recent_scored.extend(zip(utilities, token_counts))
        # Size the rolling window in whole queries (pre_k candidates each) so
        # it always spans several requests' full candidate lists — trimming
        # mid-query would bias the sample toward low-relevance tails.
        window = 10 * self.config.pre_k
        if len(self._recent_scored) > 2 * window:
            self._recent_scored = self._recent_scored[-window:]

        chosen = self._combine(examples, utilities, token_counts)
        if attached is not None:
            table.record_access(rows[chosen].tolist())
        else:
            for i in chosen:
                examples[i].record_access()
        # Ascending utility: strongest example ends up adjacent to the query
        # (ties keep selection order, as a stable sort of the chosen would).
        return [ScoredExample(examples[i], candidates[i][1], utility)
                for utility, _, i in sorted(
                    [(utilities[i], n, i) for n, i in enumerate(chosen)])]

    # -- combination selection --------------------------------------------

    def _combine(self, examples: list[Example], utilities: list[float],
                 token_counts: list[int]) -> list[int]:
        """Candidate positions of the chosen combination, in pick order."""
        threshold = self.utility_threshold
        config = self.config
        max_examples = config.max_examples
        budget = config.context_budget_tokens
        chosen: list[int] = []
        geometry: list[tuple[np.ndarray, float]] = []   # of the chosen
        for _, i in sorted([(-utility, i)
                            for i, utility in enumerate(utilities)
                            if utility >= threshold]):
            if len(geometry) >= max_examples:
                break
            if token_counts[i] > budget:
                continue
            # Diversity: discount utility by similarity to already-chosen
            # examples; a redundant near-duplicate adds tokens, not signal.
            # Only redundancy above 0.9 counts: the running max starts there.
            example = examples[i]
            embedding, norm = example.embedding, example.embedding_norm
            redundancy = 0.9
            for other, other_norm in geometry:
                similarity = cosine_from_norms(embedding, other,
                                               float(norm * other_norm))
                if similarity > redundancy:
                    redundancy = similarity
            effective = utilities[i]
            if redundancy > 0.9:
                effective -= config.diversity_weight * (redundancy - 0.9)
            if effective < threshold:
                continue
            chosen.append(i)
            geometry.append((embedding, norm))
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
        for threshold in sorted(self.config.threshold_grid, reverse=True):
            # Builtin sum on purpose: this figure has always been one, and
            # its algorithm is the interpreter's (compensated from 3.12).
            net = sum([
                utility - self.config.token_cost_weight * tokens
                for utility, tokens in self._recent_scored
                if utility >= threshold
            ])
            if net > best_net:
                best_net = net
                best_threshold = threshold
        self.utility_threshold = best_threshold
