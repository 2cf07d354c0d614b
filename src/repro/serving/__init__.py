"""Discrete-event serving-cluster simulator (vLLM on 16xA100, substituted).

The paper's serving experiments need queueing behaviour, not GPU kernels: a
fixed GPU budget is partitioned into model replicas; each replica sustains a
bounded number of concurrent requests (continuous-batching slots); requests
queue FIFO per model; latency = queue wait + TTFT + decode.  The simulator
reproduces exactly that over the deterministic event runtime of
:mod:`repro.runtime`: arrival traces from :mod:`repro.workload.trace`, the
micro-batching engine of :mod:`repro.serving.engine`, live bias-signal
autoscaling (:mod:`repro.serving.autoscaler`), and online cache maintenance
all compose as event sources on one loop.
"""

from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchPolicy, RequestBatcher
from repro.serving.records import (
    RateLimitEvent,
    ScalingEvent,
    ServedRequest,
    ServingReport,
    ShedEvent,
)
from repro.serving.metrics import replica_series, windowed_series
from repro.serving.autoscaler import BiasAutoscaler, ScalingDecision

__all__ = [
    "ClusterConfig",
    "ClusterSimulator",
    "ModelDeployment",
    "BatchPolicy",
    "RequestBatcher",
    "RateLimitEvent",
    "ScalingEvent",
    "ServedRequest",
    "ServingReport",
    "ShedEvent",
    "replica_series",
    "windowed_series",
    "BiasAutoscaler",
    "ScalingDecision",
]
