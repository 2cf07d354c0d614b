"""The end-to-end IC-Cache service (Fig. 5, Algorithm 1).

Since the pipeline redesign, ``ICCacheService`` owns the paper's learned
components — selector (section 4.1), bandit router (section 4.2), example
manager (section 4.3), feedback loops — and composes them into one
:class:`repro.pipeline.core.ICCachePipeline`.  The four serving entry
points (``serve``, ``serve_batch``, ``cluster_router``,
``cluster_batch_router``) are thin facades over that single pipeline
execution path: an inline request is a batch of one, the cluster paths are
the same decision stages with completion deferred to the simulator's
``on_complete`` callback, and the section-5 fault-tolerance bypass is a
middleware (:class:`~repro.pipeline.middleware.FaultBypassMiddleware`)
instead of per-path try/except.

The learning loops live here and attach to the pipeline as an
``after_complete`` hook: sampled thumbs feedback trains the router,
solicited preference comparisons train it on uncertain decisions, and
sampled helpfulness observations train the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.cache import ExampleCache, ShardedExampleCache
from repro.core.config import ICCacheConfig
from repro.core.example import Example
from repro.core.manager import ExampleManager
from repro.core.proxy import HelpfulnessProxy
from repro.core.replay import ReplayEngine
from repro.core.router import BanditRouter, RouterArm, RoutingChoice
from repro.core.selector import ExampleSelector, ScoredExample
from repro.embedding.embedder import LatentEmbedder
from repro.llm.icl import example_utility
from repro.llm.model import GenerationResult, SimulatedLLM
from repro.llm.zoo import get_model
from repro.pipeline.stats import ServiceStats
from repro.serving.records import ServedRequest
from repro.utils.clock import SimClock
from repro.utils.rng import make_rng, stable_hash
from repro.workload.feedback import FeedbackSimulator
from repro.workload.request import Request

__all__ = ["ICCacheService", "ServeOutcome"]


@dataclass
class ServeOutcome:
    """Everything the caller learns about one served request.

    The per-request observables of Algorithm 1: the routing choice
    (section 4.2), the selected example combination (section 4.1), whether
    the section-5 fault-tolerance bypass fired, and the example (if any) the
    manager admitted from this pair (section 4.3).  This is the stable
    public result type; the pipeline's richer
    :class:`~repro.pipeline.context.ServeContext` converts down to it.
    """

    request: Request
    result: GenerationResult
    choice: RoutingChoice
    examples: list[ScoredExample]
    admitted_example: Example | None = None
    bypassed: bool = False

    @property
    def offloaded(self) -> bool:
        return bool(self.choice.metadata.get("offloaded", False))


class ICCacheService:
    """Wires the Example Selector, Request Router, and Example Manager.

    The Fig. 5 system: the selector of section 4.1 retrieves an example
    combination, the bandit router of section 4.2 picks a model under load,
    and the manager of section 4.3 curates the plaintext cache — all
    executing on the shared serving pipeline (``self.pipeline``).  Requests
    flow through :meth:`serve` one at a time, or through :meth:`serve_batch`
    /:meth:`cluster_batch_router` when the batched retrieval engine
    amortizes embedding and stage-1 search across a micro-batch.
    """

    def __init__(self, config: ICCacheConfig | None = None,
                 models: dict[str, SimulatedLLM] | None = None,
                 clock: SimClock | None = None,
                 selector_enabled: bool = True,
                 router_enabled: bool = True) -> None:
        self.config = config or ICCacheConfig()
        self.clock = clock or SimClock()
        seed = self.config.seed

        if models is None:
            small = get_model(self.config.small_model, seed=seed)
            large = get_model(self.config.large_model, seed=seed)
            models = {small.name: small, large.name: large}
        self.models = models
        self.small_name = self.config.small_model
        self.large_name = self.config.large_model
        for name in (self.small_name, self.large_name):
            if name not in self.models:
                raise ValueError(f"model {name!r} missing from models dict")

        self.embedder = LatentEmbedder(
            dim=self.config.embedding_dim, noise_scale=self.config.embedder_noise
        )
        if self.config.cache_shards > 1:
            self.cache = ShardedExampleCache(
                dim=self.config.embedding_dim,
                n_shards=self.config.cache_shards, seed=seed,
                index_config=self.config.index,
            )
        else:
            self.cache = ExampleCache(dim=self.config.embedding_dim, seed=seed,
                                      index_config=self.config.index)
        self.proxy = HelpfulnessProxy()
        self.selector = ExampleSelector(self.cache, self.proxy, self.config.selector)

        costs = {name: m.spec.cost_per_1k_tokens for name, m in self.models.items()}
        max_cost = max(costs.values())
        self.arm_costs = {name: cost / max_cost for name, cost in costs.items()}
        self.router = BanditRouter(
            arms=[RouterArm(name, self.arm_costs[name]) for name in self.models],
            config=self.config.router,
            seed=seed,
        )

        self.manager = ExampleManager(
            self.cache,
            config=self.config.manager,
            clock=self.clock,
            replay_engine=ReplayEngine(self.models[self.large_name],
                                       self.config.manager),
        )
        self.feedback = FeedbackSimulator(
            rating_noise=self.config.feedback_noise,
            seed=stable_hash("service-feedback", seed),
        )
        self.stats = ServiceStats()
        self._rng = make_rng(stable_hash("service", seed))

        # Imported here, not at module level: repro.pipeline depends on the
        # core component modules, so a top-level import would be circular.
        from repro.pipeline.core import ICCachePipeline
        from repro.pipeline.middleware import FaultBypassMiddleware, LearningHook
        from repro.pipeline.policies import ICAdmission, ICRetrieval, ICRouting

        self._ic_retrieval = ICRetrieval(self.selector, enabled=selector_enabled)
        self._ic_routing = ICRouting(self.router, self.small_name,
                                     enabled=router_enabled)
        self.pipeline = ICCachePipeline(
            embedder=self.embedder,
            models=self.models,
            reference_model=self.large_name,
            retrieval=self._ic_retrieval,
            routing=self._ic_routing,
            admission=ICAdmission(self.manager, self.arm_costs),
            middlewares=[
                FaultBypassMiddleware(self.large_name, self.stats),
                LearningHook(self._learn),
            ],
            stats=self.stats,
            clock=self.clock,
        )
        self.pipeline.service = self

    # -- ablation switches ---------------------------------------------------
    # Live flags (old call sites toggle them mid-run, e.g. the Fig. 16/20
    # ablations): they delegate to the IC stage policies the service
    # composed, so a toggle takes effect on the next request.

    @property
    def selector_enabled(self) -> bool:
        return self._ic_retrieval.enabled

    @selector_enabled.setter
    def selector_enabled(self, enabled: bool) -> None:
        self._ic_retrieval.enabled = enabled

    @property
    def router_enabled(self) -> bool:
        return self._ic_routing.enabled

    @router_enabled.setter
    def router_enabled(self, enabled: bool) -> None:
        self._ic_routing.enabled = enabled

    # -- cache seeding -----------------------------------------------------

    def seed_cache(self, requests: list[Request],
                   source_model: str | None = None) -> int:
        """Populate the example bank from historical requests.

        Responses come from the (large) source model, matching the paper's
        example-pool initialization (appendix A.4).  Returns the number of
        admitted examples.
        """
        source_name = source_model or self.large_name
        model = self.models[source_name]
        admitted = 0
        for request in requests:
            result = model.generate(request)
            embedding = self.embedder.embed(request.text, request.latent)
            example = self.manager.admit(
                request, result, embedding, self.arm_costs[source_name]
            )
            if example is not None:
                admitted += 1
        return admitted

    # -- serving facades over the pipeline -----------------------------------
    # These four entry points predate the pipeline and stay as thin facades
    # over it.  New code can drive self.pipeline directly.

    def serve(self, request: Request, load: float | None = None) -> ServeOutcome:
        """Serve one request end-to-end, including learning and admission."""
        return self._outcome(self.pipeline.run_batch([request], load)[0])

    def serve_batch(self, requests: list[Request],
                    load: float | None = None) -> list[ServeOutcome]:
        """Serve a micro-batch end-to-end through the batched retrieval path.

        Embedding and stage-1 retrieval are amortized across the batch (one
        vectorized index pass via :meth:`ExampleSelector.select_batch`), and
        routing for the whole batch completes before any generation — the
        micro-batch is decided simultaneously, as on the cluster path.
        Generation, learning, and admission then run per-request in arrival
        order, exactly as in :meth:`serve`.  The section-5 fault-tolerance
        bypass applies at both granularities: a batch-retrieval failure
        bypasses the whole micro-batch, a per-request routing failure
        bypasses just that request.
        """
        return [self._outcome(ctx)
                for ctx in self.pipeline.run_batch(requests, load)]

    def cluster_router(self):
        """A RouterFn for :class:`repro.serving.ClusterSimulator`."""
        return self.pipeline.cluster_router()

    def cluster_batch_router(self):
        """A batch RouterFn for the batched serving engine.

        Pass the returned callable to
        :class:`repro.serving.engine.BatchedRetrievalEngine`; see
        :meth:`ICCachePipeline.cluster_batch_router` for the load-sampling
        semantics.
        """
        return self.pipeline.cluster_batch_router()

    def on_complete(self, request: Request, record: ServedRequest) -> None:
        """Completion callback for the cluster simulator: learn + admit."""
        self.pipeline.on_complete(request, record)

    # -- online maintenance (section 4.3, run live by the runtime) -----------

    def run_maintenance(self, replay: bool = True,
                        expected_reuse: float = 20.0) -> dict:
        """One cache-maintenance pass: decay, evict, optionally replay.

        This is the section-4.3 lifecycle executed *during* serving — the
        runtime's :class:`~repro.runtime.sources.MaintenanceTickSource`
        calls it on a cadence (advance ``self.clock`` first so decay sees
        true elapsed time).  After the manager's work, the pipeline's
        ``on_maintenance`` middleware hook fires, preserving
        :class:`~repro.pipeline.middleware.LearningHook` ordering for
        lifecycle observers.  Returns a summary dict.
        """
        self.manager.apply_decay()
        evicted = self.manager.enforce_capacity()
        replay_outcome = None
        if replay and self.manager.replay_engine is not None:
            replay_outcome = self.manager.run_replay(
                expected_reuse=expected_reuse
            )
        self.pipeline.run_maintenance(self)
        return {
            "evicted": evicted,
            "replayed": replay_outcome.replayed if replay_outcome else 0,
            "improved": replay_outcome.improved if replay_outcome else 0,
            "examples": len(self.cache),
        }

    # -- durable state (snapshot + WAL, repro.persistence) -------------------

    def save(self, path) -> Path:
        """Snapshot full service state to ``path`` (one JSON document).

        Captures everything warm-restart determinism needs — examples,
        index layout, learned posteriors, RNG stream positions; see
        :mod:`repro.persistence.snapshot` for the exact inventory and
        ``docs/PERSISTENCE.md`` for the format.  After the write, the
        pipeline's ``on_checkpoint`` middleware hook fires (mirroring
        ``on_maintenance``), so lifecycle observers see checkpoints in the
        same ordered chain as request hooks.  In-flight cluster requests
        are recorded but not restorable (a crash loses them).
        """
        # Imported lazily for the same reason as the pipeline imports in
        # ``__init__``: persistence depends on the core modules.
        from repro.persistence.snapshot import write_snapshot

        out = write_snapshot(self, path)
        self.pipeline.run_checkpoint(self)
        return out

    @classmethod
    def restore(cls, path, config: ICCacheConfig | None = None,
                models: dict[str, SimulatedLLM] | None = None,
                shard_fn=None) -> "ICCacheService":
        """Rebuild a service from a :meth:`save` snapshot.

        ``config`` overrides the stored configuration (cache layout and
        router arms must stay compatible); ``models`` and ``shard_fn``
        re-supply custom model objects / shard assignment if the original
        service was built with them (code is not state).  The restored
        service serves bit-identically to the one that was saved (pinned
        by ``tests/test_persistence_recovery.py``); to also replay a WAL
        tail, use :meth:`repro.persistence.wal.Checkpointer.recover`.
        """
        from repro.persistence.snapshot import load_snapshot, restore_service

        return restore_service(load_snapshot(path), config=config,
                               models=models, shard_fn=shard_fn)

    # -- the learning loops (pipeline after_complete hook) -------------------

    def _learn(self, ctx) -> None:
        """All feedback-driven updates for one served request."""
        choice = ctx.choice
        quality = ctx.result.quality
        rng = self._rng
        sample_rate = self.config.feedback_sample_rate

        if self.router_enabled and choice.mean_scores:
            if choice.solicit_feedback and choice.challenger is not None:
                self._solicited_update(ctx)
            elif rng.random() < sample_rate:
                rating = self.feedback.rating(quality)
                self.router.update(choice.model_name, choice.features, rating)
                self.stats.router_updates += 1

        # Proxy training from sampled helpfulness observations, and manager
        # bookkeeping for every *repurposed* example (examples are only
        # prepended when the request was offloaded).
        offloaded = ctx.offloaded
        model_cost = self.arm_costs[choice.model_name]
        for scored in ctx.examples:
            if offloaded:
                self.manager.record_use(
                    scored.example,
                    response_quality=quality,
                    model_cost=model_cost,
                    offloaded=True,
                )
            if rng.random() < sample_rate:
                true_utility = example_utility(
                    ctx.request.latent,
                    scored.example.view(),
                    self.models[self.small_name].base_quality(ctx.request),
                )
                observed = true_utility + rng.normal(
                    0.0, self.config.feedback_noise * 0.5
                )
                self.proxy.update(ctx.embedding, scored.example, observed)
                self.stats.proxy_updates += 1

    def _solicited_update(self, ctx) -> None:
        """Preference-feedback update on an uncertain routing decision.

        The challenger's response is generated shadow-style (offline cost);
        both arms are updated with their observed ratings, which is the
        information content of a preference pair under Bradley-Terry.
        """
        choice = ctx.choice
        challenger_model = self.models[choice.challenger]
        offload_challenger = choice.challenger != self.large_name
        views = [s.example.view() for s in ctx.examples] \
            if offload_challenger else []
        challenger_result = challenger_model.generate(ctx.request, views)

        rating_chosen = self.feedback.rating(ctx.result.quality)
        rating_challenger = self.feedback.rating(challenger_result.quality)
        self.router.update(choice.model_name, choice.features, rating_chosen)
        self.router.update(choice.challenger, choice.features, rating_challenger)
        self.stats.router_updates += 2

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _outcome(ctx) -> ServeOutcome:
        return ServeOutcome(
            request=ctx.request, result=ctx.result, choice=ctx.choice,
            examples=ctx.examples, admitted_example=ctx.admitted_example,
            bypassed=ctx.bypassed,
        )
