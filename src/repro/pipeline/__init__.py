"""The pluggable serving-policy pipeline.

One serve loop for every policy: typed stage protocols
(:class:`RetrievalPolicy`, :class:`RoutingPolicy`,
:class:`AdmissionPolicy`), middleware hooks (:class:`ServeMiddleware`),
a string-keyed component/policy registry, and the
:class:`ICCachePipeline` executor that ``ICCacheService``, the cluster
simulator, and all four baselines run on.

Quickstart — any registered policy drops into the cluster simulator::

    from repro.pipeline import registry

    pipeline = registry.build_policy("semantic-cache", dataset=dataset,
                                     history=history)
    report = sim.run(arrivals, pipeline.route_batch,
                     on_complete=pipeline.on_complete)
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
    FixedModelRouting,
    ICAdmission,
    ICRetrieval,
    ICRouting,
    NullAdmission,
    NullRetrieval,
    RandomRetentionAdmission,
)
from repro.pipeline import registry

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
    "FixedModelRouting",
    "NullAdmission",
    "RandomRetentionAdmission",
    "registry",
]
