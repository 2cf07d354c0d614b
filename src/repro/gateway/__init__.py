"""Asyncio serving gateway over the deterministic IC-Cache pipeline.

The network face of the reproduction: an HTTP front-end
(:class:`~repro.gateway.app.AsyncGateway`) whose serving core
(:class:`~repro.gateway.session.GatewaySession`) embeds a real
:class:`~repro.serving.cluster.ClusterSimulator` advanced incrementally,
so the gateway and the batch simulator are *the same system* — a trace
replayed through the loopback gateway produces bit-identical decisions
and cache state to the in-process run (``docs/GATEWAY.md``).  Admission
control (queue-depth shedding, per-tenant token buckets) and graceful
drain (flush in-flight work, take a checkpoint) live here too.
"""

from repro.gateway.api import (
    PayloadError,
    error_payload,
    record_to_payload,
    request_from_payload,
    request_to_payload,
)
from repro.gateway.app import AsyncGateway, GatewayConfig
from repro.gateway.client import GatewayClient, GatewayResponse
from repro.gateway.limits import TenantRateLimiter, TokenBucket
from repro.gateway.session import (
    ACCEPTED,
    DUPLICATE,
    RATE_LIMITED,
    SHED,
    GatewaySession,
)

__all__ = [
    "ACCEPTED",
    "DUPLICATE",
    "RATE_LIMITED",
    "SHED",
    "AsyncGateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayResponse",
    "GatewaySession",
    "PayloadError",
    "TenantRateLimiter",
    "TokenBucket",
    "error_payload",
    "record_to_payload",
    "request_from_payload",
    "request_to_payload",
]
