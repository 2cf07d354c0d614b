"""Built-in pipeline middleware.

* :class:`FaultBypassMiddleware` — the section-5 fault-tolerance bypass,
  expressed as an ``on_failure`` handler instead of inline try/except in
  three separate serve paths.
* :class:`LearningHook` — runs a learning callback after each completed
  request (how :class:`ICCacheService` attaches its feedback loops).
* :class:`FaultInjectionMiddleware` — raises on a caller-supplied schedule,
  for chaos tests of the bypass at both granularities (whole-batch
  retrieval failure vs per-request routing failure).
"""

from __future__ import annotations

from typing import Callable

from repro.core.router import plain_choice
from repro.pipeline.context import ServeContext
from repro.pipeline.protocols import ServeMiddleware
from repro.pipeline.stats import ServiceStats


class FaultBypassMiddleware(ServeMiddleware):
    """Section-5 fault tolerance: failed requests go to the fallback model.

    "If a failed request to the Example Retriever or Request Router is
    detected, the system automatically bypasses these components and routes
    the request directly to the inference backend."  A retrieval failure
    arrives here once per request of the failed batch; a routing failure
    for just the one request — the granularity is decided upstream by the
    pipeline, this handler only repairs the context.
    """

    def __init__(self, fallback_model: str,
                 stats: ServiceStats | None = None) -> None:
        self.fallback_model = fallback_model
        self.stats = stats

    def on_failure(self, ctx: ServeContext, stage: str,
                   exc: Exception) -> bool:
        ctx.examples = []
        ctx.choice = plain_choice(self.fallback_model, ctx.request, [])
        ctx.bypassed = True
        if self.stats is not None:
            self.stats.bypasses += 1
        return True


class LearningHook(ServeMiddleware):
    """Invoke ``fn(ctx)`` after each completed request, before admission."""

    def __init__(self, fn: Callable[[ServeContext], None]) -> None:
        self._fn = fn

    def after_complete(self, ctx: ServeContext) -> None:
        self._fn(ctx)


class FaultInjectionMiddleware(ServeMiddleware):
    """Deterministic failure injection for bypass testing.

    ``fail_retrieval(contexts)`` / ``fail_route(ctx)`` are predicates; when
    one returns True the corresponding stage hook raises, which the
    pipeline treats exactly like the stage itself failing.  Counters record
    how many failures were injected.
    """

    def __init__(
        self,
        fail_retrieval: Callable[[list[ServeContext]], bool] | None = None,
        fail_route: Callable[[ServeContext], bool] | None = None,
    ) -> None:
        self.fail_retrieval = fail_retrieval
        self.fail_route = fail_route
        self.retrieval_failures = 0
        self.route_failures = 0

    def before_retrieve(self, contexts: list[ServeContext]) -> None:
        if self.fail_retrieval is not None and self.fail_retrieval(contexts):
            self.retrieval_failures += 1
            raise ConnectionError("injected: retrieval replicas unreachable")

    def before_route(self, ctx: ServeContext) -> None:
        if self.fail_route is not None and self.fail_route(ctx):
            self.route_failures += 1
            raise ConnectionError(
                f"injected: router crash on {ctx.request.request_id}"
            )
