"""Event-driven serving runtime: one deterministic scheduler for everything.

The serving layer's online behaviours — trace replay, retrieval
micro-batching, bias-signal autoscaling, cache maintenance — are all event
processes over the same simulated clock.  This package provides the
deterministic discrete-event core (:class:`EventLoop`) and the pluggable
:class:`EventSource`\\ s that produce those events;
:class:`repro.serving.cluster.ClusterSimulator` composes them into runs.

An event is a callback at a simulated time: each source schedules its own
bound methods, and the loop keeps no vocabulary of event kinds.

Determinism rules (see ``docs/RUNTIME.md``):

* same-time events dispatch in scheduling order (monotonic sequence
  tie-break), so attach order is part of a scenario's definition;
* sources read live state (flags, replica counts, cache contents) at event
  time, never snapshots taken at construction;
* tick trains are primed up-front over a bounded horizon, so runs terminate
  and event counts are reproducible.
"""

from repro.runtime.chaos import (
    CrashRecoverySource,
    FaultScheduleSource,
    ReplicaKillSource,
    ServiceHolder,
    SlowShardSource,
)
from repro.runtime.loop import EventLoop
from repro.runtime.sources import (
    AutoscalerTickSource,
    CheckpointTickSource,
    EventSource,
    MaintenanceTickSource,
    ReplicaSample,
    TraceArrivalSource,
)

__all__ = [
    "EventLoop",
    "EventSource",
    "TraceArrivalSource",
    "AutoscalerTickSource",
    "MaintenanceTickSource",
    "CheckpointTickSource",
    "ReplicaSample",
    "ServiceHolder",
    "ReplicaKillSource",
    "SlowShardSource",
    "FaultScheduleSource",
    "CrashRecoverySource",
]
