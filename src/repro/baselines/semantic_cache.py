"""Semantic caching baseline (GPTCache / Databricks, sections 2.3 and 6.2).

On a hit (embedding similarity above a threshold), the cached response is
returned verbatim — zero generation cost, but the response answers the *old*
request.  The returned quality therefore degrades with the semantic distance
between the two requests: a near-exact match keeps most of the quality, a
merely-similar match risks an off-topic reply.  This is the mechanism behind
Fig. 3(b)'s win-rate collapse at high hit rates.

As a serving policy a hit is instead repurposed as an in-context example on
the small model (Fig. 14's "Semantic w/ IC"): the cluster always generates,
so verbatim reuse has no serving analogue.  A miss goes to the large model,
whose response is inserted for future reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.router import RoutingChoice, plain_choice
from repro.core.selector import ScoredExample
from repro.embedding.similarity import cosine_similarity
from repro.llm.icl import ExampleView
from repro.vectorstore.flat import FlatIndex
from repro.workload.request import Request

# How fast reused-response quality falls off with request dissimilarity.
# At similarity 1.0 the full quality is preserved; at the within-topic
# similarity of ~0.93 only ~60% survives, so high-hit-rate configurations
# collapse toward the paper's ~18% win rate for naive semantic caching.
MISMATCH_SEVERITY = 7.0


def reused_quality(original_quality: float, similarity: float) -> float:
    """Quality of serving a cached response to a *different* request."""
    if not 0.0 <= original_quality <= 1.0:
        raise ValueError(f"original_quality out of [0, 1]: {original_quality}")
    sim = float(np.clip(similarity, 0.0, 1.0))
    retention = float(np.exp(-MISMATCH_SEVERITY * (1.0 - sim)))
    return original_quality * retention


@dataclass(frozen=True)
class CachedResponse:
    """One cached (request, response) pair; like a cached ``Example`` it
    answers ``.example_id`` and ``.view()`` (``tokens``: prompt weight)."""

    request: Request
    quality: float
    tokens: int

    @property
    def example_id(self) -> str:
        return self.request.request_id

    def view(self) -> ExampleView:
        return ExampleView(latent=self.request.latent, quality=self.quality,
                           tokens=self.tokens)

    def reused_quality(self, request: Request) -> float:
        """Quality of returning this response verbatim to ``request``."""
        return reused_quality(self.quality, cosine_similarity(
            request.latent, self.request.latent))


class SemanticCache:
    """Embedding-similarity response cache: retrieval, routing and
    admission policy in one."""

    def __init__(self, small_model: str, large_model: str, dim: int,
                 similarity_threshold: float = 0.92) -> None:
        if not 0.0 <= similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold out of [0, 1]: {similarity_threshold}"
            )
        self.small_model = small_model
        self.large_model = large_model
        self.similarity_threshold = similarity_threshold
        self._index = FlatIndex(dim)
        self._entries: dict[str, CachedResponse] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def put(self, request: Request, embedding: np.ndarray,
            response_quality: float, tokens: int) -> None:
        """Cache a served request's response (keyed by request id).

        The vector is indexed before the entry is registered, so a vector
        the index refuses leaves the request uncached, not half-inserted.
        """
        if not 0.0 <= response_quality <= 1.0:
            raise ValueError(
                f"response_quality out of [0, 1]: {response_quality}")
        if request.request_id in self._entries:
            return
        self._index.add(request.request_id, embedding)
        self._entries[request.request_id] = CachedResponse(
            request, response_quality, tokens)

    def retrieve_batch(self, contexts) -> list[list[ScoredExample]]:
        """A hit (top-1 at or above the threshold) is its cached pair as
        the one example; a miss is no context."""
        combos: list[list[ScoredExample]] = []
        for results in self._index.search_batch(
                [ctx.embedding for ctx in contexts], 1):
            if not results or results[0].score < self.similarity_threshold:
                self.misses += 1
                combos.append([])
                continue
            self.hits += 1
            entry = self._entries[results[0].key]
            combos.append([ScoredExample(example=entry,
                                         relevance=results[0].score,
                                         utility=entry.quality)])
        return combos

    def route(self, ctx) -> RoutingChoice:
        """A hit to the small model, a miss to the large model."""
        model = self.small_model if ctx.examples else self.large_model
        return plain_choice(model, ctx.request, ctx.examples)

    def admit(self, ctx) -> None:
        """Insert a miss's fresh large-model response; a hit is not
        re-inserted, so the cache never ratchets down to small-model
        quality."""
        # The pair weighs the simulated output length, not
        # count_tokens(result.text): on the cluster path result.text is a
        # placeholder far shorter than the simulated response.
        if not ctx.examples:
            self.put(ctx.request, ctx.embedding, ctx.result.quality,
                     ctx.request.prompt_tokens + ctx.result.output_tokens)
