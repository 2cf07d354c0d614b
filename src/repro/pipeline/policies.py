"""IC-Cache's own stage policies, the null building blocks, and the
builders of the comparison systems the cluster benchmarks drive.

The IC policies adapt the paper's components (sections 4.1-4.3) to the
stage protocols of :mod:`repro.pipeline.protocols`; :class:`ICCacheService`
composes them into its pipeline (``ICCacheService(config).pipeline``).  The
null policies are the degenerate stages RouteLLM is built from (no
retrieval, no admission).  The baselines of :mod:`repro.baselines`
implement the protocols themselves, so :func:`build_semantic_cache` and
:func:`build_routellm` plug them into a service-free pipeline unwrapped.
"""

from __future__ import annotations

import numpy as np

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
from repro.utils.tokens import count_tokens


class ICRetrieval:
    """The two-stage Example Selector (section 4.1) as a RetrievalPolicy.

    A batch of one takes the single-request ``select`` path; larger batches
    take ``select_batch`` (one index pass, the same answers).
    """

    def __init__(self, selector: ExampleSelector) -> None:
        self.selector = selector
        self.enabled = True

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

    def __init__(self, router: BanditRouter, small_name: str) -> None:
        self.router = router
        self.small_name = small_name
        self.enabled = True

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
    """No in-context material, ever (RouteLLM)."""

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        return [[] for _ in contexts]


class NullAdmission:
    """Served pairs contribute nothing back (stateless baselines)."""

    def admit(self, ctx: ServeContext):
        return None


# -- the comparison systems (service-free pipelines) -----------------------

def _bare_pipeline(config, models, retrieval, routing, admission):
    """A service-free pipeline: embedder + stages + the section-5 bypass;
    ``models`` defaults to the config's pair, seeded as a service seeds it."""
    if models is None:
        small = get_model(config.small_model, seed=config.seed)
        large = get_model(config.large_model, seed=config.seed)
        models = {small.name: small, large.name: large}
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


def build_semantic_cache(config: ICCacheConfig | None = None, models=None,
                         history=None, similarity_threshold: float = 0.92
                         ) -> ICCachePipeline:
    """GPTCache-style semantic caching, hits repurposed as IC examples;
    ``history`` is the offline warm-up of Fig. 14."""
    config = config or ICCacheConfig()
    cache = SemanticCache(config.small_model, config.large_model,
                          dim=EMBEDDING_DIM,
                          similarity_threshold=similarity_threshold)
    pipeline = _bare_pipeline(config, models, retrieval=cache, routing=cache,
                              admission=cache)
    for request in history or []:
        result = pipeline.models[config.large_model].generate(request)
        embedding = pipeline.embedder.embed(request.text, request.latent)
        cache.put(request, embedding, result.quality,
                  request.prompt_tokens + count_tokens(result.text))
    return pipeline


def build_routellm(config: ICCacheConfig | None = None) -> ICCachePipeline:
    """RouteLLM: classifier routing, no context, no cache."""
    config = config or ICCacheConfig()
    return _bare_pipeline(
        config, None,
        retrieval=NullRetrieval(),
        routing=RouteLLMRouter(config.small_model, config.large_model,
                               seed=config.seed),
        admission=NullAdmission(),
    )
