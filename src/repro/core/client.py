"""The few-lines-of-code client API (paper Fig. 6).

The paper's integration example:

    from IC_cache import IC_cacheClient

    client = IC_cacheClient(config=generation_config)
    response = client.generate(requests)
    client.update_cache(requests, response)
    client.stop()

``ICCacheClient`` reproduces that surface over :class:`ICCacheService`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import ICCacheConfig
from repro.core.service import ICCacheService
from repro.workload.request import Request

if TYPE_CHECKING:
    from repro.pipeline.context import ServeContext


class ICCacheClient:
    """Client session to an IC-Cache service."""

    def __init__(self, config: ICCacheConfig | None = None,
                 service: ICCacheService | None = None) -> None:
        self._service = service or ICCacheService(config)
        self._stopped = False

    @property
    def service(self) -> ICCacheService:
        return self._service

    def generate(self, requests: list[Request],
                 load: float | None = None) -> list[ServeContext]:
        """Serve a batch of requests through IC-Cache."""
        self._check_open()
        return [self._service.serve(request, load=load) for request in requests]

    def update_cache(self, requests: list[Request],
                     outcomes: list[ServeContext]) -> int:
        """Explicitly (re-)register request-response pairs in the cache.

        ``generate`` already admits pairs automatically; this mirrors the
        paper's explicit API for callers that post-process responses (e.g.
        strip sensitive content) before registration.  Pairs already cached
        are deduplicated by the manager.  Returns the number admitted.
        """
        self._check_open()
        if len(requests) != len(outcomes):
            raise ValueError(
                f"requests and outcomes must pair up: "
                f"{len(requests)} vs {len(outcomes)}"
            )
        admitted = 0
        for request, outcome in zip(requests, outcomes):
            embedding = self._service.embedder.embed(request.text, request.latent)
            example = self._service.manager.admit(
                request, outcome.result, embedding,
                self._service.arm_costs[outcome.result.model_name],
            )
            if example is not None:
                admitted += 1
        return admitted

    def stop(self) -> None:
        """End the session; further calls raise."""
        self._stopped = True

    def _check_open(self) -> None:
        if self._stopped:
            raise RuntimeError("client session already stopped")

    def __enter__(self) -> "ICCacheClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
