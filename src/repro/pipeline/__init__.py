"""The pluggable serving-policy pipeline.

One serve loop for every policy: typed stage protocols
(:class:`RetrievalPolicy`, :class:`RoutingPolicy`,
:class:`AdmissionPolicy`), middleware hooks (:class:`ServeMiddleware`),
and the :class:`ICCachePipeline` executor that ``ICCacheService``, the
cluster simulator, and the comparison systems of
:mod:`repro.pipeline.policies` run on.

Quickstart — a comparison system drops into the cluster simulator::

    from repro.pipeline.policies import build_semantic_cache

    pipeline = build_semantic_cache(history=history)
    report = sim.run(arrivals, pipeline.route_batch,
                     on_complete=pipeline.on_complete)

IC-Cache itself is ``ICCacheService(config).pipeline``; a stage is swapped
by assigning the attribute (``pipeline.routing = my_policy``).
"""

# Import order matters: stats first (stdlib-only; the one module
# repro.core.service imports at module level), then the rest.
from repro.pipeline.stats import ServiceStats
from repro.pipeline.context import ServeContext
from repro.pipeline.protocols import (
    AdmissionPolicy,
    RetrievalPolicy,
    RoutingPolicy,
    ServeMiddleware,
)
from repro.pipeline.core import ICCachePipeline
from repro.pipeline.middleware import (
    FaultBypassMiddleware,
    FaultInjectionMiddleware,
    LearningHook,
)
from repro.pipeline.policies import (
    ICAdmission,
    ICRetrieval,
    ICRouting,
    NullAdmission,
    NullRetrieval,
)

__all__ = [
    "ServiceStats",
    "ServeContext",
    "RetrievalPolicy",
    "RoutingPolicy",
    "AdmissionPolicy",
    "ServeMiddleware",
    "ICCachePipeline",
    "FaultBypassMiddleware",
    "FaultInjectionMiddleware",
    "LearningHook",
    "ICRetrieval",
    "ICRouting",
    "ICAdmission",
    "NullRetrieval",
    "NullAdmission",
]
