"""The serving-policy API: stage protocols and the middleware hook surface.

Any object implementing these protocols is a first-class citizen of the
serve loop — IC-Cache's own selector/router/manager, the paper's baselines
(semantic caching, RAG retrieval, RouteLLM), or a user-defined policy
assigned to a pipeline's ``retrieval`` / ``routing`` / ``admission``
attribute.  The pipeline core
(:class:`repro.pipeline.core.ICCachePipeline`) is the only serve loop in
the repo; everything else plugs into it through this surface.

Stage protocols
---------------

* :class:`RetrievalPolicy` — ``retrieve_batch(contexts)``: context to
  prepend, batch granularity so vectorized index passes amortize.
* :class:`RoutingPolicy` — ``route(ctx)``: which model serves the request.
* :class:`AdmissionPolicy` — ``admit(ctx)``: what (if anything) the served
  pair contributes back to the cache.

Middleware
----------

:class:`ServeMiddleware` subclasses hook between stages.  Hook order per
micro-batch::

    on_batch(contexts)                # once, after embedding
    before_retrieve(contexts)         # once; raising fails the whole batch
    <RetrievalPolicy.retrieve_batch>
    after_retrieve(ctx)               # per request
    before_route(ctx)                 # per request; raising fails that request
    <RoutingPolicy.route>
    after_route(ctx)
    ...generation / cluster completion...
    after_complete(ctx)               # per request, result attached
    <AdmissionPolicy.admit>

``on_failure(ctx, stage, exc)`` fires when a stage (or its before-hook)
raises; the first middleware returning ``True`` has handled the failure
(it must leave ``ctx.choice`` set), otherwise the exception propagates.
The section-5 fault-tolerance bypass is exactly such a middleware
(:class:`repro.pipeline.middleware.FaultBypassMiddleware`).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.example import Example
from repro.core.router import RoutingChoice
from repro.core.selector import ScoredExample
from repro.pipeline.context import ServeContext


@runtime_checkable
class RetrievalPolicy(Protocol):
    """Supplies the in-context material for a micro-batch of requests."""

    def retrieve_batch(self, contexts: list[ServeContext]
                       ) -> list[list[ScoredExample]]:
        """One example combination per context (empty list = no context).

        Called once per micro-batch (a single inline request is a batch of
        one) with ``ctx.embedding`` already populated.  Raising fails the
        *whole batch* — the granularity of the section-5 retrieval bypass.
        """
        ...


@runtime_checkable
class RoutingPolicy(Protocol):
    """Picks the serving model for one request."""

    def route(self, ctx: ServeContext) -> RoutingChoice:
        """A routing decision given ``ctx.request``/``examples``/``load``.

        Called per request after retrieval.  Raising fails *that request
        only* — the granularity of the section-5 routing bypass.
        """
        ...


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides what a completed request contributes back to the cache."""

    def admit(self, ctx: ServeContext) -> Example | None:
        """Admit the served pair; returns the new example or ``None``.

        Called per request after ``ctx.result`` is attached (inline
        generation or cluster completion) and after ``after_complete``
        middleware has run.
        """
        ...


class ServeMiddleware:
    """No-op base class for pipeline middleware; override what you need.

    See the module docstring for hook ordering.  Hooks run in the order
    middleware was registered; ``on_failure`` stops at the first handler
    that returns ``True``.
    """

    def on_batch(self, contexts: list[ServeContext]) -> None:
        """A micro-batch entered the pipeline (embeddings populated)."""

    def before_retrieve(self, contexts: list[ServeContext]) -> None:
        """About to retrieve; raising injects a whole-batch failure."""

    def after_retrieve(self, ctx: ServeContext) -> None:
        """Retrieval produced ``ctx.examples`` for this request."""

    def before_route(self, ctx: ServeContext) -> None:
        """About to route; raising injects a per-request failure."""

    def after_route(self, ctx: ServeContext) -> None:
        """Routing produced ``ctx.choice`` for this request."""

    def on_failure(self, ctx: ServeContext, stage: str,
                   exc: Exception) -> bool:
        """A stage failed; return ``True`` if this middleware handled it."""
        return False

    def after_complete(self, ctx: ServeContext) -> None:
        """``ctx.result`` is attached; runs before admission."""

    def on_maintenance(self, service) -> None:
        """An online maintenance pass (decay/evict/replay) just ran.

        Fired by ``ICCacheService.run_maintenance`` through the same
        middleware chain as the per-request hooks, so observers of cache
        lifecycle events keep a stable ordering relative to
        :class:`~repro.pipeline.middleware.LearningHook` — maintenance
        never interleaves inside a request's hook sequence, it lands
        between completed requests exactly where the runtime's
        maintenance tick fired.
        """

    def on_checkpoint(self, service) -> None:
        """A durable-state snapshot was just written.

        Fired by ``ICCacheService.save`` (and therefore by every
        :class:`~repro.persistence.wal.Checkpointer` checkpoint or
        compaction, and every runtime
        :class:`~repro.runtime.sources.CheckpointTickSource` tick) through
        the same ordered middleware chain as ``on_maintenance`` — so
        observers can, e.g., ship the snapshot or cut metrics at exactly
        the request boundary the checkpoint captured.
        """
