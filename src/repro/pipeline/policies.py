"""IC-Cache's own stage policies, plus generic null/fixed building blocks.

These adapt the paper's components (sections 4.1-4.3) to the stage
protocols of :mod:`repro.pipeline.protocols`; :class:`ICCacheService`
composes them into its pipeline.  The null/fixed policies are the degenerate
cases every other serving system is built from (RouteLLM has no retrieval,
RAG has fixed routing, ...), and :class:`RandomRetentionAdmission` turns
the Fig. 19 naive-retention baseline into a drop-in admission policy.
"""

from __future__ import annotations

import numpy as np

from repro.core.manager import ExampleManager
from repro.core.router import BanditRouter, RoutingChoice, routing_features
from repro.core.selector import ExampleSelector, ScoredExample
from repro.pipeline.context import ServeContext
from repro.pipeline.registry import register
from repro.utils.rng import make_rng, stable_hash


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
            return plain_choice(ctx, self.small_name)
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
        return plain_choice(ctx, self.model_name)


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


def plain_choice(ctx: ServeContext, model_name: str) -> RoutingChoice:
    """A RoutingChoice carrying no bandit state.

    The one construction every non-bandit decision shares: fixed routing,
    hit-aware routing, and the section-5 bypass all route *somewhere*
    without arm posteriors, so their choices differ only in the model name.
    """
    return RoutingChoice(
        model_name=model_name,
        features=routing_features(ctx.request, ctx.examples),
        mean_scores={}, biased_scores={},
        solicit_feedback=False,
    )


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
