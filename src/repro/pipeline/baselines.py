"""The paper's comparison systems as pluggable serving policies.

Section 6 compares IC-Cache against semantic caching, RAG, RouteLLM, and
naive cache retention.  Here each becomes a first-class citizen of the one
serve loop: stage policies implementing the protocols of
:mod:`repro.pipeline.protocols`, plus registered ``policy`` builders that
assemble a complete :class:`~repro.pipeline.core.ICCachePipeline` — so any
baseline drops into :class:`ClusterSimulator`, micro-batched or not,
exactly where IC-Cache does.

Modeling notes for the shared generation path:

* **Semantic cache** — a hit is repurposed as an in-context example on the
  small model (the Fig. 14 "Semantic w/ IC" rule) rather than returned
  verbatim: the cluster always generates, so verbatim reuse has no serving
  analogue.  Misses go to the large model, whose response is inserted for
  future reuse.
* **RAG** — retrieved documents ride the context-view mechanism (latent /
  quality / tokens), so the simulator's ICL model gates their lift by
  relevance and headroom.  Table 2's dedicated inline benchmark keeps the
  specialized RAG boost model; this adapter is for end-to-end serving
  comparisons.
* **RouteLLM** — pure routing: no context, no learning, load-oblivious.
* **Naive cache** — IC-Cache with admission swapped for the Fig. 19
  random-retention policy (see ``RandomRetentionAdmission``).
"""

from __future__ import annotations

from repro.baselines.rag import LongRAGRetriever, build_document_store
from repro.baselines.routellm import RouteLLMRouter
from repro.baselines.semantic_cache import SemanticCache
from repro.core.config import ICCacheConfig
from repro.core.router import RoutingChoice, routing_features
from repro.core.selector import ScoredExample
from repro.embedding.embedder import LatentEmbedder
from repro.embedding.similarity import cosine_similarity
from repro.llm.icl import ExampleView
from repro.llm.zoo import get_model
from repro.pipeline.context import ServeContext
from repro.pipeline.core import ICCachePipeline
from repro.pipeline.middleware import FaultBypassMiddleware
from repro.pipeline.policies import (
    FixedModelRouting,
    NullAdmission,
    NullRetrieval,
    plain_choice,
)
from repro.pipeline.registry import create, register
from repro.utils.tokens import count_tokens


class ViewExample:
    """Adapter giving any :class:`ExampleView` the ``.view()`` surface of a
    cached :class:`Example`, so non-IC context (cached responses, RAG
    documents) flows through ``ScoredExample`` unchanged."""

    __slots__ = ("example_id", "_view")

    def __init__(self, example_id: str, view: ExampleView) -> None:
        self.example_id = example_id
        self._view = view

    def view(self) -> ExampleView:
        return self._view


# -- semantic caching ------------------------------------------------------

class SemanticCacheAdapter:
    """Retrieval + admission over a :class:`SemanticCache`.

    Retrieval probes the cache; a hit yields the cached pair as a single
    in-context example (relevance = embedding similarity, utility = the
    stored response quality).  Admission inserts every completed request's
    response for future reuse.  One object serves both stages so the
    token bookkeeping stays consistent.
    """

    def __init__(self, cache: SemanticCache) -> None:
        self.cache = cache
        self._tokens: dict[str, int] = {}   # request_id -> stored pair tokens

    def warm(self, request, embedding, quality: float, tokens: int) -> None:
        """Pre-populate from history (the offline warm-up of Fig. 14)."""
        self.cache.put(request, embedding, quality)
        self._tokens[request.request_id] = tokens

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        combos: list[list[ScoredExample]] = []
        for ctx in contexts:
            lookup = self.cache.lookup(ctx.request, ctx.embedding)
            if not lookup.hit:
                combos.append([])
                continue
            source, quality = self.cache.entry(lookup.source_request_id)
            view = ExampleView(
                latent=source.latent, quality=quality,
                tokens=self._tokens.get(lookup.source_request_id,
                                        source.prompt_tokens),
            )
            combos.append([ScoredExample(
                example=ViewExample(lookup.source_request_id, view),
                relevance=lookup.similarity,
                utility=quality,
            )])
        return combos

    def admit(self, ctx: ServeContext):
        if ctx.examples:
            # A hit was served by repurposing an existing entry; only
            # misses (fresh large-model responses) are inserted, so the
            # cache never ratchets down to small-model quality.
            return None
        self.cache.put(ctx.request, ctx.embedding, ctx.result.quality)
        # Token weight of the stored pair: use the simulated output length,
        # not count_tokens(result.text) — on the cluster path result.text
        # is a fabricated placeholder, far shorter than the response the
        # latency/cost model simulated.
        self._tokens.setdefault(
            ctx.request.request_id,
            ctx.request.prompt_tokens + ctx.result.output_tokens,
        )
        return None


class HitRouting:
    """Hits to the small model (repurposing the cached pair as context),
    misses to the large model — the serving form of Fig. 14's comparison."""

    def __init__(self, small_name: str, large_name: str) -> None:
        self.small_name = small_name
        self.large_name = large_name

    def route(self, ctx: ServeContext) -> RoutingChoice:
        name = self.small_name if ctx.examples else self.large_name
        return plain_choice(ctx, name)


# -- RAG -------------------------------------------------------------------

class RAGRetrieval:
    """Top-k document retrieval (LongRAG) as a RetrievalPolicy.

    Documents become context views (latent/quality/tokens); relevance is
    the latent cosine similarity the RAG boost model gates on.
    """

    def __init__(self, retriever: LongRAGRetriever) -> None:
        self.retriever = retriever

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        combos = []
        for ctx in contexts:
            docs = self.retriever.retrieve(ctx.request.latent)
            combos.append([
                ScoredExample(
                    example=ViewExample(doc.doc_id, ExampleView(
                        latent=doc.latent, quality=doc.quality,
                        tokens=doc.tokens,
                    )),
                    relevance=cosine_similarity(ctx.request.latent, doc.latent),
                    utility=doc.quality,
                )
                for doc in docs
            ])
        return combos


# -- RouteLLM --------------------------------------------------------------

class RouteLLMRouting:
    """RouteLLM's difficulty-threshold classifier as a RoutingPolicy.

    Load-oblivious and context-blind by construction (section 6.2): the
    classifier sees only the bare request.
    """

    def __init__(self, router: RouteLLMRouter) -> None:
        self.router = router

    def route(self, ctx: ServeContext) -> RoutingChoice:
        return RoutingChoice(
            model_name=self.router.route(ctx.request, ctx.load),
            features=routing_features(ctx.request, []),
            mean_scores={}, biased_scores={},
            solicit_feedback=False,
        )


@register("routing", "routellm")
def _routellm_routing(service, threshold: float = 0.5, **kwargs):
    """RouteLLM routing as a swappable component for an IC-backed pipeline."""
    return RouteLLMRouting(RouteLLMRouter(
        service.small_name, service.large_name,
        threshold=threshold, seed=service.config.seed,
    ))


# -- policy builders (full pipelines) --------------------------------------

def _resolve(config, models, seed):
    config = config or ICCacheConfig(seed=seed if seed is not None else 0)
    seed = config.seed if seed is None else seed
    if models is None:
        small = get_model(config.small_model, seed=seed)
        large = get_model(config.large_model, seed=seed)
        models = {small.name: small, large.name: large}
    return config, models, seed


def _bare_pipeline(config, models, retrieval, routing, admission):
    """A service-free pipeline: embedder + stages + the section-5 bypass."""
    pipeline = ICCachePipeline(
        embedder=LatentEmbedder(dim=config.embedding_dim,
                                noise_scale=config.embedder_noise),
        models=models,
        reference_model=config.large_model,
        retrieval=retrieval,
        routing=routing,
        admission=admission,
    )
    pipeline.middlewares.append(
        FaultBypassMiddleware(config.large_model, pipeline.stats))
    return pipeline


@register("policy", "ic-cache")
def build_ic_cache(config=None, models=None, dataset=None, history=None,
                   seed=None, **kwargs) -> ICCachePipeline:
    """The full IC-Cache system; ``history`` seeds the example bank."""
    from repro.core.service import ICCacheService
    config, models, seed = _resolve(config, models, seed)
    service = ICCacheService(config, models=models)
    if history:
        service.seed_cache(history)
    return service.pipeline


@register("policy", "naive-cache")
def build_naive_cache(config=None, models=None, dataset=None, history=None,
                      seed=None, fraction: float = 0.5,
                      **kwargs) -> ICCachePipeline:
    """IC-Cache with Fig. 19's random-retention admission policy."""
    from repro.core.service import ICCacheService
    config, models, seed = _resolve(config, models, seed)
    service = ICCacheService(config, models=models)
    service.pipeline.admission = create(
        "admission", "naive-random", service=service, fraction=fraction)
    if history:
        service.seed_cache(history)
    return service.pipeline


@register("policy", "semantic-cache")
def build_semantic_cache(config=None, models=None, dataset=None, history=None,
                         seed=None, similarity_threshold: float = 0.92,
                         **kwargs) -> ICCachePipeline:
    """GPTCache-style semantic caching, hits repurposed as IC examples."""
    config, models, seed = _resolve(config, models, seed)
    adapter = SemanticCacheAdapter(SemanticCache(
        dim=config.embedding_dim, similarity_threshold=similarity_threshold))
    pipeline = _bare_pipeline(
        config, models,
        retrieval=adapter,
        routing=HitRouting(config.small_model, config.large_model),
        admission=adapter,
    )
    for request in history or []:
        result = models[config.large_model].generate(request)
        embedding = pipeline.embedder.embed(request.text, request.latent)
        adapter.warm(request, embedding, result.quality,
                     request.prompt_tokens + count_tokens(result.text))
    return pipeline


@register("policy", "rag")
def build_rag(config=None, models=None, dataset=None, history=None,
              seed=None, docs_per_topic: int = 3, top_k: int = 5,
              **kwargs) -> ICCachePipeline:
    """LongRAG over a document corpus synthesized from the workload topics."""
    if dataset is None:
        raise ValueError("the 'rag' policy needs dataset= for its corpus topics")
    config, models, seed = _resolve(config, models, seed)
    documents, index = build_document_store(
        dataset.topics, docs_per_topic=docs_per_topic, seed=seed)
    return _bare_pipeline(
        config, models,
        retrieval=RAGRetrieval(LongRAGRetriever(documents, index, top_k=top_k)),
        routing=FixedModelRouting(config.small_model),
        admission=NullAdmission(),
    )


@register("policy", "routellm")
def build_routellm(config=None, models=None, dataset=None, history=None,
                   seed=None, threshold: float = 0.5,
                   **kwargs) -> ICCachePipeline:
    """RouteLLM: classifier routing, no context, no cache."""
    config, models, seed = _resolve(config, models, seed)
    return _bare_pipeline(
        config, models,
        retrieval=NullRetrieval(),
        routing=RouteLLMRouting(RouteLLMRouter(
            config.small_model, config.large_model,
            threshold=threshold, seed=seed)),
        admission=NullAdmission(),
    )
