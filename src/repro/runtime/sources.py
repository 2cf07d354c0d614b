"""Pluggable event sources for the serving runtime.

Each source owns one concern of an online serving run and composes with the
others on a shared :class:`~repro.runtime.loop.EventLoop`:

* :class:`TraceArrivalSource` — replays a timestamped arrival sequence
  (closed-loop trace replay or the open-loop Poisson/diurnal processes of
  :mod:`repro.workload.trace`) as routed micro-batches: it drives a
  :class:`~repro.serving.engine.RequestBatcher` with the event clock, size
  flushes inline and timeout flushes as scheduled ``_flush`` calls
  carrying a generation stamp so stale timers no-op.
* :class:`AutoscalerTickSource` — the paper's section-4.2 control loop made
  live: on a fixed cadence it feeds the router's bias signal and the
  cluster's utilization to a :class:`~repro.serving.autoscaler.BiasAutoscaler`
  and *applies* the resulting :class:`ScalingDecision` to the deployment,
  clamped to ``ClusterConfig.gpu_budget``.
* :class:`MaintenanceTickSource` — periodic online cache maintenance
  (decay/evict/replay) through ``ICCacheService.run_maintenance``, so the
  section-4.3 lifecycle runs *during* serving instead of strictly offline.
* :class:`CheckpointTickSource` — periodic durable-state checkpoints
  through a :class:`~repro.persistence.wal.Checkpointer`, so crash
  recovery (snapshot + WAL, ``docs/PERSISTENCE.md``) bounds its data loss
  to one tick of serving even in live cluster scenarios.

Every source schedules its own bound methods on the loop (an event is a
callback at a time), so any number of sources of one class compose on one
loop.  Sources read live state at event time, never snapshots taken at
construction — benchmarks toggle ``service.router_enabled`` and friends
mid-run, and the golden-path tests pin that those toggles take effect on
the next event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.runtime.loop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> runtime)
    from repro.serving.autoscaler import BiasAutoscaler, ScalingDecision
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.engine import BatchPolicy
    from repro.workload.request import Request


@runtime_checkable
class EventSource(Protocol):
    """Anything that can plug into a serving run.

    ``attach(loop, cluster)`` is called once before the loop runs: schedule
    the source's initial callbacks with :meth:`EventLoop.schedule`.  Attach
    order is the determinism contract for same-time events (insertion order
    breaks ties), so compositions should attach arrival sources first.
    """

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        ...


def _periodic(loop: EventLoop, tick: Callable[[None], None],
              interval_s: float, horizon_s: float) -> None:
    """Schedule a bounded train of ``tick`` calls.

    Ticks are primed up-front (not self-rescheduled) so the loop drains
    once real work is done and the event count stays bounded and
    deterministic regardless of what the ticks do.  Tick times are computed
    on the ``i * interval_s`` grid — accumulating ``t += interval_s`` would
    drift under float rounding and silently drop the final tick for
    fractional intervals.
    """
    if not 0 < interval_s < math.inf:
        raise ValueError(
            f"interval_s must be positive and finite, got {interval_s}")
    if not 0 <= horizon_s < math.inf:
        raise ValueError(
            f"horizon_s must be >= 0 and finite, got {horizon_s}")
    ticks = int(horizon_s / interval_s + 1e-9)
    for i in range(1, ticks + 1):
        loop.schedule(i * interval_s, tick)


class TraceArrivalSource:
    """Replays ``[(timestamp, request)]`` arrivals as routed micro-batches.

    Arrivals park in a :class:`~repro.serving.engine.RequestBatcher` under
    ``policy``; the default ``BatchPolicy()`` is the batch of one, which
    dispatches each arrival as it fires and arms no timer.  A batch
    dispatches inline the moment it reaches ``max_batch``; otherwise its
    first item schedules :meth:`_flush` at the batcher's deadline, stamped
    with the batcher's generation so a timer armed for a batch that already
    size-flushed falls through as a no-op.  ``route_batch(requests,
    cluster)`` returns one ``(model_name, examples)`` decision per request.
    Use :meth:`from_trace` to expand an
    :class:`~repro.workload.trace.ArrivalTrace` — including the open-loop
    ``poisson_trace``/``diurnal_trace`` processes — into arrivals.
    """

    def __init__(self, arrivals: Iterable[tuple[float, "Request"]],
                 route_batch: Callable,
                 policy: "BatchPolicy | None" = None) -> None:
        from repro.serving.engine import RequestBatcher

        self.arrivals = list(arrivals)
        self.route_batch = route_batch
        self.batcher = RequestBatcher(policy)
        self.emitted = 0

    @classmethod
    def from_trace(cls, trace, requests: Iterable["Request"],
                   route_batch: Callable, policy: "BatchPolicy | None" = None,
                   *, seed: int = 0) -> "TraceArrivalSource":
        """Expand ``trace`` into Poisson arrival times over ``requests``.

        The request list is truncated or the times are (whichever is
        shorter), so open-loop processes with a random arrival count pair
        safely with a finite request stream.
        """
        times = trace.arrival_times(seed=seed)
        requests = list(requests)
        n = min(len(times), len(requests))
        return cls(list(zip(times[:n], requests[:n])), route_batch, policy)

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        self._cluster = cluster
        arrive = self._arrive
        for timestamp, request in self.arrivals:
            loop.schedule(timestamp, arrive, request)

    def _arrive(self, request: "Request") -> None:
        """One arrival fired: park it, then dispatch or arm the timeout.

        Under the batch of one this is the paper's inline serving path
        (Algorithm 1 invoked at arrival time, section 6's closed-loop
        evaluation); a larger batch is how the section-7 throughput
        experiments amortize retrieval.
        """
        self.emitted += 1
        now = self._loop.now
        opened = len(self.batcher) == 0
        full = self.batcher.add((request, now), now)
        if full is not None:
            self._dispatch(full)
        elif opened:
            self._loop.schedule(self.batcher.deadline, self._flush,
                                self.batcher.generation)

    def _flush(self, generation: int) -> None:
        """A timeout flush fired for the batch stamped ``generation``."""
        if self.batcher.generation == generation:  # else it size-flushed
            self._dispatch(self.batcher.flush())

    def _dispatch(self, batch: list[tuple["Request", float]]) -> None:
        """Route a micro-batch; each request enqueues at its arrival time."""
        requests = [request for request, _ in batch]
        self._cluster.dispatch(batch,
                               self.route_batch(requests, self._cluster))


class AutoscalerTickSource:
    """Live autoscaling: observe the bias signal, apply replica changes.

    Every ``interval_s`` up to ``horizon_s``, reads ``bias_fn()`` (typically
    ``service.router.current_bias`` — the paper's "persistent magnitude of
    this applied bias" signal) and the cluster's :meth:`total_load`, feeds
    them to the :class:`BiasAutoscaler`, and applies any non-zero
    :class:`ScalingDecision` to ``model_name``'s deployment through
    :meth:`ClusterSimulator.apply_scaling` — which clamps scale-ups to the
    GPU budget and scale-downs to one replica.  ``history`` records one
    :class:`ReplicaSample` per tick for assertions and plots.
    """

    def __init__(self, autoscaler: BiasAutoscaler, model_name: str,
                 bias_fn: Callable[[], float], *,
                 interval_s: float, horizon_s: float) -> None:
        self.autoscaler = autoscaler
        self.model_name = model_name
        self.bias_fn = bias_fn
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self.history: list[ReplicaSample] = []

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        self._cluster = cluster
        _periodic(loop, self._on_event, self.interval_s, self.horizon_s)

    def _on_event(self, _: None) -> None:
        """One autoscaler tick: observe the section-4.2 bias, maybe scale.

        The paper: "the persistent magnitude of this applied bias can be
        used ... for infrastructure auto-scaling" — each tick reads that
        live signal plus cluster utilization, and applies the resulting
        decision immediately (clamped by :meth:`apply_scaling`), so the
        control loop acts back on the run that produced the signal.
        """
        bias = max(0.0, float(self.bias_fn()))
        utilization = self._cluster.total_load()
        decision = self.autoscaler.observe(bias, utilization)
        applied = 0
        if decision.replicas_delta != 0:
            applied = self._cluster.apply_scaling(self.model_name,
                                                  decision.replicas_delta)
        queue_depl = self._cluster.deployment(self.model_name)
        self.history.append(ReplicaSample(
            time_s=self._loop.now,
            decision=decision,
            applied_delta=applied,
            replicas=queue_depl.replicas,
            total_gpus=self._cluster.total_gpus(),
        ))


@dataclass(slots=True)
class ReplicaSample:
    """One autoscaler tick's outcome (for assertions and time-series plots)."""

    time_s: float
    decision: "ScalingDecision"
    applied_delta: int
    replicas: int
    total_gpus: int


class MaintenanceTickSource:
    """Online cache maintenance on a fixed cadence.

    Every ``interval_s`` up to ``horizon_s``: advance the service clock to
    simulated now (so gain decay sees true elapsed time) and run one
    ``ICCacheService.run_maintenance`` pass — gain decay, capacity
    enforcement and a section-4.3 replay sweep.  The pass emits the
    pipeline's ``on_maintenance`` middleware hook, preserving
    ``LearningHook`` ordering for observers of cache lifecycle events.
    """

    def __init__(self, service, *, interval_s: float,
                 horizon_s: float) -> None:
        self.service = service
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self.history: list[dict] = []

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        _periodic(loop, self._on_event, self.interval_s, self.horizon_s)

    def _on_event(self, _: None) -> None:
        """One maintenance tick: decay, evict, replay.

        Advances the service clock first so the section-4.3 hourly gain
        decay sees true elapsed simulated time, then delegates to
        ``run_maintenance`` (which ends by emitting the pipeline's
        ``on_maintenance`` hook).
        """
        self.service.clock.advance_to(self._loop.now)
        outcome = self.service.run_maintenance()
        outcome["time_s"] = self._loop.now
        self.history.append(outcome)


class CheckpointTickSource:
    """Periodic durable-state checkpoints on a fixed cadence.

    Every ``interval_s`` up to ``horizon_s``: advance the service clock to
    simulated now (so the snapshot's notion of time matches the run) and
    take one :meth:`Checkpointer.checkpoint` — a fresh full snapshot plus a
    WAL truncation.  Like every tick source, the train is primed up-front
    and bounded, never self-rescheduling, so adding checkpointing to a
    scenario cannot keep its loop alive.

    A checkpoint bounds crash-recovery loss: state restored from the
    snapshot (plus any WAL tail journaled after it) is bit-identical to
    the service at the checkpoint boundary, and requests in flight at the
    crash are lost — the semantics ``docs/PERSISTENCE.md`` specifies.
    ``history`` records one summary dict per tick for assertions.
    """

    def __init__(self, checkpointer, *, interval_s: float,
                 horizon_s: float) -> None:
        self.checkpointer = checkpointer
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self.history: list[dict] = []

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        _periodic(loop, self._on_event, self.interval_s, self.horizon_s)

    def _on_event(self, _: None) -> None:
        service = self.checkpointer.service
        service.clock.advance_to(self._loop.now)
        path = self.checkpointer.checkpoint()
        self.history.append({
            "time_s": self._loop.now,
            "path": str(path),
            "examples": len(service.cache),
            "served": service.stats.served,
        })
