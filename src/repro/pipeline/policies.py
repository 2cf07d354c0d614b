"""IC-Cache's own stage policies, generic null/fixed building blocks, and
the ``policy`` builders of every serving system the paper compares.

The IC policies adapt the paper's components (sections 4.1-4.3) to the
stage protocols of :mod:`repro.pipeline.protocols`; :class:`ICCacheService`
composes them into its pipeline.  The null/fixed policies are the degenerate
cases other serving systems are built from (RouteLLM has no retrieval, RAG
has fixed routing, ...), and :class:`RandomRetentionAdmission` turns the
Fig. 19 naive-retention baseline into a drop-in admission policy.  The
baselines of :mod:`repro.baselines` implement the protocols themselves, so
the builders plug them into a service-free pipeline unwrapped.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rag import LongRAGRetriever, build_document_store
from repro.baselines.routellm import RouteLLMRouter
from repro.baselines.semantic_cache import SemanticCache
from repro.core.config import ICCacheConfig
from repro.core.manager import ExampleManager
from repro.core.router import BanditRouter, RoutingChoice, plain_choice
from repro.core.selector import ExampleSelector, ScoredExample
from repro.embedding.embedder import EMBEDDING_DIM, LatentEmbedder
from repro.llm.zoo import get_model
from repro.pipeline.context import ServeContext
from repro.pipeline.core import ICCachePipeline
from repro.pipeline.middleware import FaultBypassMiddleware
from repro.pipeline.registry import create, register
from repro.utils.rng import make_rng, stable_hash
from repro.utils.tokens import count_tokens


class ICRetrieval:
    """The two-stage Example Selector (section 4.1) as a RetrievalPolicy.

    A batch of one takes the single-request ``select`` path; larger batches
    take ``select_batch`` (one index pass; stages 2-3 identical by
    construction, stage 1 by test up to sgemm-vs-einsum last-ulp ties).
    """

    def __init__(self, selector: ExampleSelector, enabled: bool = True) -> None:
        self.selector = selector
        self.enabled = enabled

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        if not self.enabled:
            return [[] for _ in contexts]
        if len(contexts) == 1:
            return [self.selector.select(contexts[0].embedding)]
        return self.selector.select_batch(
            np.stack([ctx.embedding for ctx in contexts])
        )


class ICRouting:
    """The bandit Request Router (section 4.2) as a RoutingPolicy.

    With routing disabled (ablations), every request goes to the fixed
    small model — the always-offload arm of Fig. 16.
    """

    def __init__(self, router: BanditRouter, small_name: str,
                 enabled: bool = True) -> None:
        self.router = router
        self.small_name = small_name
        self.enabled = enabled

    def route(self, ctx: ServeContext) -> RoutingChoice:
        if not self.enabled:
            return plain_choice(self.small_name, ctx.request, ctx.examples)
        return self.router.route(ctx.request, ctx.examples, ctx.load)


class ICAdmission:
    """The Example Manager's admission flow (section 4.3) as an
    AdmissionPolicy: sanitize -> dedupe -> admit, with the serving model's
    normalized cost feeding the G(e) bookkeeping."""

    def __init__(self, manager: ExampleManager,
                 arm_costs: dict[str, float]) -> None:
        self.manager = manager
        self.arm_costs = arm_costs

    def admit(self, ctx: ServeContext):
        return self.manager.admit(
            ctx.request, ctx.result, ctx.embedding,
            self.arm_costs[ctx.choice.model_name],
        )


class NullRetrieval:
    """No in-context material, ever (RouteLLM, always-X baselines)."""

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        return [[] for _ in contexts]


class FixedModelRouting:
    """Every request to one fixed model (always-small / always-large)."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name

    def route(self, ctx: ServeContext) -> RoutingChoice:
        return plain_choice(self.model_name, ctx.request, ctx.examples)


class NullAdmission:
    """Served pairs contribute nothing back (stateless baselines)."""

    def admit(self, ctx: ServeContext):
        return None


class RandomRetentionAdmission:
    """Fig. 19's naive baseline as an AdmissionPolicy: keep a random
    ``fraction`` of candidate admissions instead of utility-aware retention.

    Wraps another admission policy (usually :class:`ICAdmission`) and
    forwards a seeded-random subset of requests to it, which holds the
    cache near ``fraction`` of the utility-aware policy's size.
    """

    def __init__(self, inner, fraction: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.inner = inner
        self.fraction = fraction
        self._rng = make_rng(stable_hash("naive-admission", seed))

    def admit(self, ctx: ServeContext):
        if self._rng.uniform() >= self.fraction:
            return None
        return self.inner.admit(ctx)


# -- registry entries (component granularity) -----------------------------
# Builders take ``service=`` (the backing ICCacheService) so swapped-in
# components can reuse its selector/router/manager/config.

@register("retrieval", "ic-cache")
def _ic_retrieval(service, **kwargs):
    # The service's own instance, not a copy: the live
    # selector_enabled/router_enabled ablation setters on ICCacheService
    # delegate to these objects and must keep working after a swap.
    return service._ic_retrieval


@register("retrieval", "null")
def _null_retrieval(service=None, **kwargs):
    return NullRetrieval()


@register("routing", "ic-cache")
def _ic_routing(service, **kwargs):
    return service._ic_routing


@register("routing", "fixed-small")
def _fixed_small(service, **kwargs):
    return FixedModelRouting(service.small_name)


@register("routing", "fixed-large")
def _fixed_large(service, **kwargs):
    return FixedModelRouting(service.large_name)


@register("admission", "ic-cache")
def _ic_admission(service, **kwargs):
    return ICAdmission(service.manager, service.arm_costs)


@register("admission", "null")
def _null_admission(service=None, **kwargs):
    return NullAdmission()


@register("admission", "naive-random")
def _naive_admission(service, fraction: float = 0.5, **kwargs):
    return RandomRetentionAdmission(
        ICAdmission(service.manager, service.arm_costs),
        fraction=fraction, seed=service.config.seed,
    )


@register("routing", "routellm")
def _routellm_routing(service, threshold: float = 0.5, **kwargs):
    """RouteLLM routing as a swappable component for an IC-backed pipeline."""
    return RouteLLMRouter(service.small_name, service.large_name,
                          threshold=threshold, seed=service.config.seed)


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
        embedder=LatentEmbedder(),
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
    pipeline = build_ic_cache(config, models, history=history, seed=seed)
    pipeline.admission = create("admission", "naive-random",
                                service=pipeline.service, fraction=fraction)
    return pipeline


@register("policy", "semantic-cache")
def build_semantic_cache(config=None, models=None, dataset=None, history=None,
                         seed=None, similarity_threshold: float = 0.92,
                         **kwargs) -> ICCachePipeline:
    """GPTCache-style semantic caching, hits repurposed as IC examples;
    ``history`` is the offline warm-up of Fig. 14."""
    config, models, seed = _resolve(config, models, seed)
    cache = SemanticCache(config.small_model, config.large_model,
                          dim=EMBEDDING_DIM,
                          similarity_threshold=similarity_threshold)
    pipeline = _bare_pipeline(config, models, retrieval=cache, routing=cache,
                              admission=cache)
    for request in history or []:
        result = models[config.large_model].generate(request)
        embedding = pipeline.embedder.embed(request.text, request.latent)
        cache.put(request, embedding, result.quality,
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
        retrieval=LongRAGRetriever(documents, index, top_k=top_k),
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
        routing=RouteLLMRouter(config.small_model, config.large_model,
                               threshold=threshold, seed=seed),
        admission=NullAdmission(),
    )
