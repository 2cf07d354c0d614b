"""The one serve loop: ``ICCachePipeline``.

Every way of serving a request in this repo — ``ICCacheService.serve``,
``serve_batch``, the cluster simulator's batch router, and the
semantic-cache and RouteLLM comparison systems — executes this pipeline.
The flow is Algorithm 1 generalized to protocol-typed stages over a
micro-batch (a single inline request is a batch of one):

    embed -> retrieve (RetrievalPolicy, batch) -> route (RoutingPolicy,
    per request) -> generate -> after_complete middleware (learning) ->
    admit (AdmissionPolicy)

Middleware hooks run between stages (ordering in
:mod:`repro.pipeline.protocols`); stage failures funnel through
``on_failure`` — with :class:`~repro.pipeline.middleware.
FaultBypassMiddleware` installed, that is the section-5 bypass: a
retrieval failure bypasses the whole micro-batch, a routing failure just
that request.

Cluster serving splits the same flow around the simulator's event clock:
``route_batch`` runs the decision half (embed/retrieve/route) and parks the
context; ``on_complete`` finishes it (learning + admission) when the
simulated request completes, so online learning sees real serving delay.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.llm.model import GenerationResult, SimulatedLLM
from repro.pipeline.context import ServeContext
from repro.pipeline.protocols import (
    AdmissionPolicy,
    RetrievalPolicy,
    RoutingPolicy,
    ServeMiddleware,
)
from repro.pipeline.stats import ServiceStats
from repro.serving.records import ServedRequest
from repro.utils.clock import SimClock
from repro.utils.rng import SEED_AHEAD_FROM
from repro.workload.request import Request, prime_difficulty


class ICCachePipeline:
    """Protocol-typed serve loop over pluggable stage policies.

    ``reference_model`` plays two roles: it is the quality reference that
    defines "offloaded" (a request is offloaded when routed anywhere else),
    and in-context views are attached only for offloaded requests
    (Algorithm 1 prepends examples only on the small model).
    """

    def __init__(self, *, embedder, models: dict[str, SimulatedLLM],
                 reference_model: str,
                 retrieval: RetrievalPolicy,
                 routing: RoutingPolicy,
                 admission: AdmissionPolicy | None = None,
                 middlewares: Sequence[ServeMiddleware] = (),
                 stats: ServiceStats | None = None,
                 clock: SimClock | None = None) -> None:
        if reference_model not in models:
            raise ValueError(
                f"reference model {reference_model!r} missing from models: "
                f"{sorted(models)}"
            )
        self.embedder = embedder
        self.models = models
        self.reference_model = reference_model
        from repro.pipeline.policies import NullAdmission
        self.retrieval = retrieval
        self.routing = routing
        self.admission = admission if admission is not None else NullAdmission()
        self.middlewares: list[ServeMiddleware] = list(middlewares)
        self.stats = stats or ServiceStats()
        self.clock = clock
        # request_id -> decided context, resolved by on_complete.
        self._pending: dict[str, ServeContext] = {}

    # -- inline serving ----------------------------------------------------

    def run_batch(self, requests: Sequence[Request],
                  load: float | None = None) -> list[ServeContext]:
        """Serve a micro-batch end-to-end; returns one context per request.

        Decisions for the whole batch complete before any generation (the
        micro-batch is decided simultaneously, as on the cluster path);
        generation, learning, and admission then run per request in arrival
        order.
        """
        contexts = self.decide_batch(requests, load)
        for ctx in contexts:
            self.complete(ctx, self.generate(ctx))
        return contexts

    # -- the decision half (embed -> retrieve -> route) --------------------

    def decide_batch(self, requests: Sequence[Request],
                     load: float | None = None) -> list[ServeContext]:
        """Run the decision stages; every returned context has a choice.

        A ``load`` outside ``[0, inf)`` (NaN included) is refused before
        anything moves: the router's load EMA would hold it for good.
        """
        if load is not None and not 0.0 <= load < math.inf:
            raise ValueError(f"load must be in [0, inf), got {load!r}")
        contexts = [ServeContext(request=r, load=load) for r in requests]
        if not contexts:
            return contexts
        # Hooks are looked up on the middleware at every emission (never
        # bound ahead of time), so one patched on a live instance is honoured.
        middlewares = self.middlewares
        # A large enough batch seeds its draws in one pass per owner.
        if contexts[SEED_AHEAD_FROM - 1:]:
            prime_difficulty([ctx.request for ctx in contexts])
            getattr(self.embedder, "prime", lambda texts: None)(
                [ctx.request.text for ctx in contexts])
        for ctx in contexts:
            ctx.embedding = self.embedder.embed(ctx.request.text,
                                                ctx.request.latent)
        for mw in middlewares:
            mw.on_batch(contexts)

        # Retrieval: batch granularity; a failure fails the whole batch.
        try:
            for mw in middlewares:
                mw.before_retrieve(contexts)
            combos = self.retrieval.retrieve_batch(contexts)
            if len(combos) != len(contexts):
                raise RuntimeError(
                    f"retrieval returned {len(combos)} combinations "
                    f"for {len(contexts)} requests"
                )
            for ctx, examples in zip(contexts, combos):
                ctx.examples = list(examples)
                for mw in middlewares:
                    mw.after_retrieve(ctx)
        except Exception as exc:
            for ctx in contexts:
                self._fail(ctx, "retrieve", exc)

        # Routing: per-request granularity.
        for ctx in contexts:
            if ctx.failed_stage is not None:
                continue
            try:
                for mw in middlewares:
                    mw.before_route(ctx)
                ctx.choice = self.routing.route(ctx)
                for mw in middlewares:
                    mw.after_route(ctx)
            except Exception as exc:
                self._fail(ctx, "route", exc)

        for ctx in contexts:
            offloaded = ctx.choice.model_name != self.reference_model
            ctx.choice.metadata["offloaded"] = offloaded
            # Views are prepended only when offloading (Algorithm 1); the
            # context still carries the selected examples so learning can
            # reason about the counterfactual.
            ctx.views = [s.example.view() for s in ctx.examples] \
                if offloaded else []
        if contexts[SEED_AHEAD_FROM - 1:]:
            chosen: dict[str, list[Request]] = {}
            for ctx in contexts:
                chosen.setdefault(ctx.choice.model_name, []).append(ctx.request)
            for name, batch in chosen.items():
                if batch[SEED_AHEAD_FROM - 1:]:
                    self.models[name].prime(batch, draws=1)
        return contexts

    # -- the completion half (generate -> learn -> admit) ------------------

    def generate(self, ctx: ServeContext) -> GenerationResult:
        """Generate inline with the chosen model (non-cluster paths)."""
        return self.models[ctx.choice.model_name].generate(ctx.request,
                                                           ctx.views)

    def complete(self, ctx: ServeContext,
                 result: GenerationResult) -> ServeContext:
        """Attach the result, run learning middleware, admit, record stats."""
        ctx.result = result
        for mw in self.middlewares:
            mw.after_complete(ctx)
        ctx.admitted_example = self.admission.admit(ctx)
        self.stats.served += 1
        if ctx.offloaded:
            self.stats.offloaded += 1
        self.stats.record_quality(result.quality)
        return ctx

    # -- cluster-simulator adapters ----------------------------------------

    def route_batch(self, requests: Sequence[Request],
                    sim) -> list[tuple[str, list]]:
        """The batch router for :class:`ClusterSimulator`: decide, then park
        each context for :meth:`on_complete`.

        The cluster load is sampled once per micro-batch: the simulator
        enqueues nothing until the whole batch is routed, so per-request
        sampling would read the same stale value anyway — micro-batching
        coarsens the router's load signal to batch granularity.  An id
        already parked would lose one of its two completions, so it is
        refused.
        """
        decisions = []
        for ctx in self.decide_batch(requests, sim.total_load()):
            request_id = ctx.request.request_id
            if request_id in self._pending:
                raise ValueError(f"request {request_id!r} is already in flight")
            self._pending[request_id] = ctx
            decisions.append((ctx.choice.model_name, ctx.views))
        return decisions

    def unpark(self, request_id: str) -> None:
        """Drop the context parked for a request the cluster shed, so a
        retry of its id decides afresh."""
        self._pending.pop(request_id, None)

    def on_complete(self, request: Request, record: ServedRequest) -> None:
        """Completion callback for the cluster simulator: learn + admit."""
        ctx = self._pending.pop(request.request_id, None)
        if ctx is None:
            return
        if self.clock is not None:
            self.clock.advance_to(record.finish_s)
        result = GenerationResult(
            model_name=record.model_name,
            quality=record.quality,
            prompt_tokens=record.prompt_tokens,
            output_tokens=record.output_tokens,
            ttft_s=record.ttft_s,
            decode_s=record.finish_s - record.start_s - record.ttft_s,
            icl_boost=0.0,
            n_examples=record.n_examples,
            cost=record.cost,
            text=f"[{record.model_name}] response to {request.request_id}: "
                 + request.text[:120],
        )
        self.complete(ctx, result)

    # -- online maintenance ------------------------------------------------

    def run_maintenance(self, service) -> None:
        """Emit the ``on_maintenance`` middleware hook in registration order.

        Called by ``ICCacheService.run_maintenance`` after a cache
        maintenance pass (decay / eviction / replay) so middleware observes
        lifecycle events through the same ordered chain as request hooks.
        """
        for mw in self.middlewares:
            mw.on_maintenance(service)

    def run_checkpoint(self, service) -> None:
        """Emit the ``on_checkpoint`` middleware hook in registration order.

        Called by ``ICCacheService.save`` after a snapshot is written —
        the durable-state counterpart of :meth:`run_maintenance`.
        Cadence-driven checkpoints (explicit ``save`` calls, the runtime's
        checkpoint tick) land *between* completed requests, never inside
        one request's hook sequence; a WAL *size-triggered* compaction can
        additionally fire from an admission mid-request, in which case the
        in-progress request counts as in-flight for that snapshot (see
        ``docs/PERSISTENCE.md``).
        """
        for mw in self.middlewares:
            mw.on_checkpoint(service)

    # -- internals ---------------------------------------------------------

    def _fail(self, ctx: ServeContext, stage: str, exc: Exception) -> None:
        ctx.failed_stage = stage
        ctx.error = exc
        for mw in self.middlewares:
            if mw.on_failure(ctx, stage, exc):
                return
        raise exc
