"""Chaos event sources: faults as first-class citizens of the runtime.

The PR-4 runtime made every online behaviour an event process; this module
does the same for *failures*, so chaos scenarios compose with ordinary
sources on one deterministic loop instead of living in ad-hoc test
harnesses:

* :class:`ReplicaKillSource` — kills (and optionally restores) replicas
  mid-run through :meth:`ClusterSimulator.apply_scaling`, so capacity loss
  shows up in the scaling timeline like any other replica change;
* :class:`SlowShardSource` — injects extra TTFT on a model during scheduled
  windows via the cluster's ``latency_penalty`` hook (a degraded shard, a
  noisy neighbour, a failing NIC);
* :class:`FaultScheduleSource` — drives a
  :class:`~repro.pipeline.middleware.FaultInjectionMiddleware` from the
  event clock, raising retrieval/routing faults only inside scheduled
  windows (the ``FaultBypassMiddleware`` then absorbs them into fallback
  routing, exactly as in steady-state fault handling);
* :class:`CrashRecoverySource` — the headline: at a scheduled instant the
  live service *dies* and is rebuilt from its durable state
  (:meth:`Checkpointer.recover`), in-flight requests are lost, and serving
  resumes on the recovered instance — all inside one event-loop run.

Because a crash replaces the service object mid-run, routing callbacks must
not capture the service at attach time.  :class:`ServiceHolder` is the
indirection: sources and simulators hold the *holder*, whose
``route_batch`` / ``on_complete`` delegate to whichever service generation is currently
adopted.

Determinism: every source here schedules its own bound methods on the
shared loop and mutates state only inside them, so a chaos scenario is as
replayable as a benign one — ``tests/test_chaos.py`` pins that a kill +
WAL recovery inside a flash crowd finishes bit-identically across two
same-seed runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from repro.runtime.loop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import ICCacheConfig
    from repro.core.service import ICCacheService
    from repro.persistence.wal import Checkpointer
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.records import ServedRequest
    from repro.workload.request import Request

Window = tuple[float, float]


def _in_windows(now: float, windows: Sequence[Window]) -> bool:
    return any(start <= now < end for start, end in windows)


class ServiceHolder:
    """Mutable indirection over the live service instance.

    A crash-recovery event replaces the service object mid-run; anything
    that captured ``service.pipeline.route_batch`` directly would keep
    routing against the dead instance.  The holder's ``route_batch`` /
    ``on_complete`` delegate to the current generation's pipeline at call
    time, so arrival sources and the simulator's completion callback
    survive the swap untouched.  ``on_adopt`` hooks re-apply per-service
    setup (e.g. re-installing injected middleware) after each swap.
    """

    def __init__(self, service: "ICCacheService") -> None:
        self.generation = -1
        self._adopt_hooks: list[Callable[["ICCacheService"], None]] = []
        self.adopt(service)

    def adopt(self, service: "ICCacheService") -> None:
        """Make ``service`` the live generation."""
        self.service = service
        self.generation += 1
        for hook in self._adopt_hooks:
            hook(service)

    def on_adopt(self, hook: Callable[["ICCacheService"], None]) -> None:
        """Register per-service setup; runs now and after every adopt."""
        self._adopt_hooks.append(hook)
        hook(self.service)

    def route_batch(self, requests: Sequence["Request"],
                    cluster: "ClusterSimulator") -> list:
        """Route a micro-batch on the live generation's pipeline."""
        return self.service.pipeline.route_batch(requests, cluster)

    def on_complete(self, request: "Request",
                    record: "ServedRequest") -> None:
        """Completion callback delegating to the live generation.

        A request routed by generation N but finishing after a crash swap
        reaches generation N+1's pipeline, which does not know its
        request_id and ignores it — the in-flight-lost-on-crash semantics
        ``docs/PERSISTENCE.md`` specifies.
        """
        self.service.pipeline.on_complete(request, record)


class ReplicaKillSource:
    """Kill replicas at scheduled instants; optionally restore them later.

    Each ``(at_s, n)`` in ``kills`` removes ``n`` replicas of
    ``model_name`` at ``at_s`` through :meth:`ClusterSimulator.apply_scaling`
    — so the one-replica floor clamps the kill exactly like an autoscaler
    scale-down would be clamped, in-flight requests keep their slots, and
    the capacity loss lands in ``report.scaling`` for the SLO timeline.
    With ``restore_after_s`` set, each kill's *applied* count is added back
    that many seconds later (budget-clamped, drains queued work on arrival
    — a node replacement coming up).
    """

    def __init__(self, model_name: str, kills: Sequence[tuple[float, int]],
                 restore_after_s: float | None = None) -> None:
        if restore_after_s is not None and not 0 < restore_after_s < math.inf:
            raise ValueError("restore_after_s must be positive and finite, "
                             f"got {restore_after_s}")
        for at_s, n in kills:
            if not 0 <= at_s < math.inf or n < 1:
                raise ValueError(f"bad kill ({at_s}, {n}): need a finite "
                                 "at_s >= 0, n >= 1")
        self.model_name = model_name
        self.kills = [(float(at_s), int(n)) for at_s, n in kills]
        self.restore_after_s = restore_after_s
        self.history: list[dict] = []

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        self._cluster = cluster
        for at_s, n in self.kills:
            loop.schedule(at_s, self._on_event, ("kill", n))

    def _on_event(self, data: tuple[str, int]) -> None:
        action, n = data
        delta = -n if action == "kill" else n
        applied = self._cluster.apply_scaling(self.model_name, delta)
        self.history.append({
            "time_s": self._loop.now,
            "action": action,
            "requested_delta": delta,
            "applied_delta": applied,
            "replicas": self._cluster.deployment(self.model_name).replicas,
        })
        if action == "kill" and applied != 0 and self.restore_after_s is not None:
            self._loop.schedule(self._loop.now + self.restore_after_s,
                                self._on_event, ("restore", -applied))


class SlowShardSource:
    """Latency injection: a model's replicas run slow during windows.

    Installs the cluster's ``latency_penalty`` hook so every request
    *started* on an affected model inside a ``(start_s, end_s)`` window
    pays ``penalty_s`` extra seconds of TTFT (and hence end-to-end
    latency).  ``model_names=None`` affects every model.  Purely
    functional in event time — same run, same penalties — and refuses to
    stack on an already-installed hook rather than silently compose.
    """

    def __init__(self, windows: Sequence[Window], penalty_s: float,
                 model_names: Sequence[str] | None = None) -> None:
        if not 0 <= penalty_s < math.inf:
            raise ValueError(
                f"penalty_s must be >= 0 and finite, got {penalty_s}")
        for start, end in windows:
            if not 0 <= start < end:
                raise ValueError(f"bad window ({start}, {end})")
        self.windows = [(float(a), float(b)) for a, b in windows]
        self.penalty_s = penalty_s
        self.model_names = set(model_names) if model_names is not None else None
        self.injected = 0

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        if cluster.latency_penalty is not None:
            raise ValueError(
                "cluster.latency_penalty is already installed; compose slow "
                "shards inside one SlowShardSource"
            )
        cluster.latency_penalty = self._penalty

    def _penalty(self, model_name: str, request: "Request",
                 now: float) -> float:
        if self.model_names is not None and model_name not in self.model_names:
            return 0.0
        if _in_windows(now, self.windows):
            self.injected += 1
            return self.penalty_s
        return 0.0


class FaultScheduleSource:
    """Scheduled pipeline faults over ``FaultInjectionMiddleware``.

    Builds one :class:`~repro.pipeline.middleware.FaultInjectionMiddleware`
    whose predicates consult the *event clock*: retrieval faults fire for
    requests routed inside ``retrieval_windows``, routing faults inside
    ``route_windows``.  The middleware is inserted at the head of the
    pipeline, upstream of ``FaultBypassMiddleware``, so scheduled faults
    degrade to fallback routing (counted in ``service.stats.bypasses``)
    instead of crashing the run.

    ``target`` is either a service or a :class:`ServiceHolder`; with a
    holder, the middleware is re-installed on every adopted generation, so
    the fault schedule survives crash recovery.
    """

    def __init__(self, target, retrieval_windows: Sequence[Window] = (),
                 route_windows: Sequence[Window] = ()) -> None:
        from repro.pipeline.middleware import FaultInjectionMiddleware

        for start, end in (*retrieval_windows, *route_windows):
            if not 0 <= start < end:
                raise ValueError(f"bad window ({start}, {end})")
        self.retrieval_windows = [(float(a), float(b))
                                  for a, b in retrieval_windows]
        self.route_windows = [(float(a), float(b)) for a, b in route_windows]
        self._loop: EventLoop | None = None
        self.middleware = FaultInjectionMiddleware(
            fail_retrieval=lambda contexts: self._scheduled(
                self.retrieval_windows),
            fail_route=lambda ctx: self._scheduled(self.route_windows),
        )
        if isinstance(target, ServiceHolder):
            target.on_adopt(self._install)
        else:
            self._install(target)

    def _install(self, service: "ICCacheService") -> None:
        service.pipeline.middlewares.insert(0, self.middleware)

    def _scheduled(self, windows: Sequence[Window]) -> bool:
        # Before attach (inline serving outside a run) nothing fires.
        return self._loop is not None and _in_windows(self._loop.now, windows)

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop


class CrashRecoverySource:
    """Kill the live service at ``at_s`` and recover it from durable state.

    The scheduled event replays the full crash-recovery protocol inside
    the run: detach the dying service's journal, rebuild a fresh service
    from the snapshot + WAL tail (:meth:`Checkpointer.recover`), wrap it
    in a new :class:`Checkpointer` over the same directory, optionally
    fold the replayed tail into a fresh snapshot (``recheckpoint=True``,
    the documented resume step), and :meth:`ServiceHolder.adopt` the
    recovered instance so subsequent arrivals route against it.  Requests
    in flight at the crash finish against the *new* generation's pipeline,
    which ignores their unknown request_ids — in-flight work is lost, as
    a real crash loses it.

    ``self.checkpointer`` always points at the live Checkpointer (the
    replacement after recovery), so later sources or assertions can keep
    checkpointing the recovered service.
    """

    def __init__(self, holder: ServiceHolder, checkpointer: "Checkpointer",
                 at_s: float, config: "ICCacheConfig | None" = None,
                 recheckpoint: bool = True) -> None:
        if not 0 <= at_s < math.inf:
            raise ValueError(f"at_s must be >= 0 and finite, got {at_s}")
        self.holder = holder
        self.checkpointer = checkpointer
        self.at_s = float(at_s)
        self.config = config
        self.recheckpoint = recheckpoint
        self.history: list[dict] = []

    def attach(self, loop: EventLoop, cluster: "ClusterSimulator") -> None:
        self._loop = loop
        self._cluster = cluster
        loop.schedule(self.at_s, self._on_event)

    def _on_event(self, _: None) -> None:
        from repro.persistence.wal import Checkpointer

        old = self.checkpointer
        wal_tail = len(old.wal)
        directory = old.directory
        old.detach()
        config = self.config if self.config is not None else self.holder.service.config
        recovered = Checkpointer.recover(directory, config=config)
        replacement = Checkpointer(recovered, directory,
                                   compact_after_bytes=old.compact_after_bytes)
        if self.recheckpoint:
            recovered.clock.advance_to(self._loop.now)
            replacement.checkpoint()
        self.checkpointer = replacement
        self.holder.adopt(recovered)
        self.history.append({
            "time_s": self._loop.now,
            "wal_tail_replayed": wal_tail,
            "examples": len(recovered.cache),
            "generation": self.holder.generation,
        })
