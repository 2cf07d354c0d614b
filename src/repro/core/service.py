"""The end-to-end IC-Cache service (Fig. 5, Algorithm 1).

Since the pipeline redesign, ``ICCacheService`` owns the paper's learned
components — selector (section 4.1), bandit router (section 4.2), example
manager (section 4.3), feedback loops — and composes them into one
:class:`repro.pipeline.core.ICCachePipeline`.  The two serving entry
points (``serve``, ``serve_batch``) are thin facades over that single
pipeline execution path: an inline request is a batch of one, the cluster
path (``pipeline.route_batch`` / ``pipeline.on_complete``) is the same
decision stages with completion deferred to the simulator's
``on_complete`` callback, and the section-5 fault-tolerance bypass is a
middleware (:class:`~repro.pipeline.middleware.FaultBypassMiddleware`)
instead of per-path try/except.

The learning loops live here and attach to the pipeline as an
``after_complete`` hook: sampled thumbs feedback trains the router,
solicited preference comparisons train it on uncertain decisions, and
sampled helpfulness observations train the proxy.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.cache import ExampleCache
from repro.core.config import ICCacheConfig
from repro.core.manager import ExampleManager
from repro.core.proxy import HelpfulnessProxy
from repro.core.replay import ReplayEngine
from repro.core.router import BanditRouter, RouterArm
from repro.core.selector import ExampleSelector
from repro.embedding.embedder import EMBEDDING_DIM, LatentEmbedder
from repro.llm.icl import example_utility
from repro.llm.model import SimulatedLLM
from repro.llm.zoo import get_model
from repro.pipeline.stats import ServiceStats
from repro.utils.clock import SimClock
from repro.utils.rng import SEED_AHEAD_FROM, make_rng, stable_hash
from repro.workload.feedback import FeedbackSimulator
from repro.workload.request import Request

if TYPE_CHECKING:
    from repro.pipeline.context import ServeContext

__all__ = ["ICCacheService"]

FEEDBACK_SAMPLE_RATE = 0.3    # share of responses with a feedback label
FEEDBACK_NOISE = 0.1          # label noise (half on a helpfulness label)


class ICCacheService:
    """Wires the Example Selector, Request Router, and Example Manager.

    The Fig. 5 system: the selector of section 4.1 retrieves an example
    combination, the bandit router of section 4.2 picks a model under load,
    and the manager of section 4.3 curates the plaintext cache — all
    executing on the shared serving pipeline (``self.pipeline``).  Requests
    flow through :meth:`serve` one at a time, or through :meth:`serve_batch`
    / ``pipeline.route_batch`` when micro-batching amortizes embedding and
    stage-1 search across a batch.
    """

    def __init__(self, config: ICCacheConfig | None = None,
                 models: dict[str, SimulatedLLM] | None = None) -> None:
        self.config = config or ICCacheConfig()
        self.clock = SimClock()
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

        self.embedder = LatentEmbedder()
        self.cache = ExampleCache(dim=EMBEDDING_DIM, seed=seed)
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
            replay_engine=ReplayEngine(self.models[self.large_name]),
        )
        self.feedback = FeedbackSimulator(
            rating_noise=FEEDBACK_NOISE,
            seed=stable_hash("service-feedback", seed),
        )
        self.stats = ServiceStats()
        self._rng = make_rng(stable_hash("service", seed))

        # Imported here, not at module level: repro.pipeline depends on the
        # core component modules, so a top-level import would be circular.
        from repro.pipeline.core import ICCachePipeline
        from repro.pipeline.middleware import FaultBypassMiddleware, LearningHook
        from repro.pipeline.policies import ICAdmission, ICRetrieval, ICRouting

        self._ic_retrieval = ICRetrieval(self.selector)
        self._ic_routing = ICRouting(self.router, self.small_name)
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
        if requests[SEED_AHEAD_FROM - 1:]:     # as decide_batch does
            self.embedder.prime([r.text for r in requests])
            model.prime(requests, draws=1)
        admitted = 0
        for request in requests:
            embedding = self.embedder.embed(request.text, request.latent)
            result = model.generate(request)
            example = self.manager.admit(
                request, result, embedding, self.arm_costs[source_name]
            )
            if example is not None:
                admitted += 1
        return admitted

    # -- serving facades over the pipeline -----------------------------------
    # Two entry points stay as thin facades over the pipeline; the cluster
    # drives self.pipeline directly.

    def serve(self, request: Request, load: float | None = None) -> ServeContext:
        """Serve one request end-to-end, including learning and admission.

        The returned context carries the per-request observables of
        Algorithm 1: the routing ``choice`` (section 4.2), the selected
        ``examples`` (section 4.1), the ``result``, whether the section-5
        bypass fired (``bypassed``) and the ``admitted_example`` (section
        4.3).  ``load`` must lie in ``[0, inf)``.
        """
        return self.pipeline.run_batch([request], load)[0]

    def serve_batch(self, requests: list[Request],
                    load: float | None = None) -> list[ServeContext]:
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
        return self.pipeline.run_batch(requests, load)

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
        lifecycle observers.  Returns a summary dict.  An ``expected_reuse``
        replay would refuse is refused before the decay moves anything.
        """
        if not 0.0 < expected_reuse < math.inf:
            raise ValueError(
                f"expected_reuse must be positive and finite: {expected_reuse}")
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
                models: dict[str, SimulatedLLM] | None = None
                ) -> "ICCacheService":
        """Rebuild a service from a :meth:`save` snapshot.

        ``config`` overrides the stored configuration (the embedding dim and
        router arms must stay compatible); ``models`` re-supplies custom
        model objects if the original service was built with them (code is
        not state).  The restored service serves bit-identically to the one
        that was saved (pinned by ``tests/test_persistence_recovery.py``);
        to also replay a WAL tail, use
        :meth:`repro.persistence.wal.Checkpointer.recover`.
        """
        from repro.persistence.snapshot import load_snapshot, restore_service

        return restore_service(load_snapshot(path), config=config,
                               models=models)

    # -- the learning loops (pipeline after_complete hook) -------------------

    def _learn(self, ctx) -> None:
        """All feedback-driven updates for one served request."""
        choice = ctx.choice
        quality = ctx.result.quality
        rng = self._rng

        if self.router_enabled and choice.mean_scores:
            if choice.solicit_feedback and choice.challenger is not None:
                self._solicited_update(ctx)
            elif rng.random() < FEEDBACK_SAMPLE_RATE:
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
            if rng.random() < FEEDBACK_SAMPLE_RATE:
                true_utility = example_utility(
                    ctx.request.latent,
                    scored.example.view(),
                    self.models[self.small_name].base_quality(ctx.request),
                )
                observed = true_utility + rng.normal(0.0, FEEDBACK_NOISE * 0.5)
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
