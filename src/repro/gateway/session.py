"""The gateway's deterministic serving core: one writer, one event session.

``GatewaySession`` is the piece that makes the gateway and
:class:`~repro.serving.cluster.ClusterSimulator` *the same system*.  It
opens an incremental run on a real simulator
(:meth:`~repro.serving.cluster.ClusterSimulator.start_sources`) and feeds
network arrivals into it by hand, replicating — call for call — what
:class:`~repro.runtime.sources.TraceArrivalSource` and
:class:`~repro.runtime.sources.BatchFlushSource` do when the same trace
runs in-process: advance the event loop strictly past earlier work, make
the routing decision against live queue state, enqueue at the arrival
timestamp (shedding on queue depth), and drain free slots.  Because every
step is the simulator's own machinery on the *same pipeline object*, a
trace replayed through the loopback gateway produces bit-identical
decisions and cache state to the same trace run through
``ClusterSimulator.run`` (pinned by ``tests/test_gateway_equivalence.py``).

Time here is logical, never wall-clock (DET002): arrivals carry their own
timestamps; unstamped arrivals land on the session watermark.  The session
is intentionally synchronous and single-threaded — concurrency safety is
the caller's job: :class:`repro.gateway.app.AsyncGateway` calls it only
from event-loop callbacks, which run one at a time to completion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.gateway.limits import TenantRateLimiter
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.records import RateLimitEvent, ServedRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.service import ICCacheService
    from repro.persistence.wal import Checkpointer
    from repro.workload.request import Request

#: Admission outcomes of :meth:`GatewaySession.submit`.
ACCEPTED = "accepted"
SHED = "shed"
RATE_LIMITED = "rate_limited"


class GatewaySession:
    """Single-writer deterministic serving state behind the gateway.

    ``service`` supplies the decision pipeline (the same object may also
    drive an in-process simulator — that is the point); ``cluster_config``
    sizes the replica pool, queue-depth shedding included;
    ``rate_limiter`` applies per-tenant token buckets *before* routing, so
    a 429 consumes no pipeline state; ``checkpointer`` (optional) makes
    :meth:`drain` durable.
    """

    def __init__(self, service: "ICCacheService",
                 cluster_config: ClusterConfig,
                 rate_limiter: TenantRateLimiter | None = None,
                 checkpointer: "Checkpointer | None" = None) -> None:
        self.service = service
        self.sim = ClusterSimulator(cluster_config)
        self.rate_limiter = rate_limiter
        self.checkpointer = checkpointer
        self._route = service.cluster_router()
        self._route_batch = service.pipeline.cluster_batch_router()
        self._loop = self.sim.start_sources([], on_complete=self._completed)
        self.records: dict[str, ServedRequest] = {}
        self.accepted = 0          # monotonic admission seq (see submit)
        self.late_arrivals = 0     # stamps clamped forward to the watermark
        self.drained = False

    # -- observability -----------------------------------------------------

    @property
    def now(self) -> float:
        """The session watermark (logical time of the last arrival/advance)."""
        return self.sim.now

    @property
    def pending(self) -> int:
        """Accepted requests whose completion has not fired yet."""
        return self.accepted - len(self.records)

    @property
    def report(self):
        return self.sim.report

    def stats_payload(self) -> dict:
        """The ``/stats`` document: SLO surface + service + session counters."""
        stats = self.service.stats
        return {
            "slo": self.sim.report.slo_report(),
            "service": {
                "served": stats.served,
                "offloaded": stats.offloaded,
                "offload_ratio": stats.offload_ratio,
                "bypasses": stats.bypasses,
                "mean_quality": stats.mean_quality,
                "examples": len(self.service.cache),
                "cache_bytes": self.service.cache.total_bytes,
            },
            "gateway": {
                "accepted": self.accepted,
                "completed": len(self.records),
                "pending": self.pending,
                "late_arrivals": self.late_arrivals,
                "now": self.now,
                "draining": self.drained,
                "tenants": (self.rate_limiter.tenants()
                            if self.rate_limiter else []),
            },
        }

    # -- admission + serving ----------------------------------------------

    def _resolve_arrival(self, arrival_time: float | None) -> float:
        """Clamp a stamp to the watermark; unstamped arrivals land on it.

        Clamping (instead of erroring) keeps a mixed live workload moving;
        the ``late_arrivals`` counter records every clamp so determinism
        tests can assert their trace replay never needed one.  A stamp
        that is not finite is refused: it would park or poison the clock.
        """
        if arrival_time is None:
            return self.sim.now
        t = float(arrival_time)
        if not math.isfinite(t):
            raise ValueError(f"arrival stamp must be finite, got {t!r}")
        if t < self.sim.now:
            self.late_arrivals += 1
            return self.sim.now
        return t

    def submit(self, request: "Request",
               arrival_time: float | None = None) -> str:
        """One per-request arrival; returns the admission outcome.

        Mirrors ``TraceArrivalSource._on_event`` exactly: advance the loop
        strictly past earlier completions, rate-limit (gateway-only, before
        routing), route against live load, enqueue at the arrival stamp
        (``None`` from the simulator = queue-depth shed, already recorded
        as a :class:`~repro.serving.records.ShedEvent`), drain free slots.
        The response itself completes later — when a subsequent arrival or
        :meth:`run_pending` advances time past the finish event.
        """
        self._check_open()
        t = self._resolve_arrival(arrival_time)
        self.sim.advance_to(t)
        if not self._admit_tenant(request, t):
            return RATE_LIMITED
        model_name, examples = self._route(request, self.sim)
        queue = self.sim.enqueue(model_name, request, examples, t)
        if queue is None:
            return SHED
        self.accepted += 1
        self.sim.drain(queue)
        return ACCEPTED

    def submit_batch(self, requests: Sequence["Request"],
                     arrival_times: Sequence[float] | None = None,
                     ) -> list[str]:
        """One micro-batch arrival; returns per-request admission outcomes.

        Mirrors a size-triggered ``BatchFlushSource`` flush: the batch
        dispatches at the latest member's arrival, decisions for the whole
        batch are made together (one amortized retrieval pass via the
        pipeline's batch router), and each admitted request enqueues at
        its *own* arrival stamp so micro-batching delay is charged to
        queue wait.  Rate limiting applies per member, before the batch is
        routed, so limited members cost no pipeline state.
        """
        self._check_open()
        requests = list(requests)
        if arrival_times is None:
            times = [self._resolve_arrival(None)] * len(requests)
        else:
            if len(arrival_times) != len(requests):
                raise ValueError(
                    f"{len(arrival_times)} arrival times for "
                    f"{len(requests)} requests"
                )
            # Checked up front: a refused batch must not have counted clamps.
            if not all(t is None or math.isfinite(t) for t in arrival_times):
                raise ValueError("arrival stamps must be finite")
            times = [self._resolve_arrival(t) for t in arrival_times]
        if not requests:
            return []
        flush_t = max(times)
        self.sim.advance_to(flush_t)

        statuses: list[str | None] = []
        admitted: list[tuple["Request", float]] = []
        for request, t in zip(requests, times):
            if self._admit_tenant(request, t):
                statuses.append(None)
                admitted.append((request, t))
            else:
                statuses.append(RATE_LIMITED)
        decisions = self._route_batch([r for r, _ in admitted], self.sim) \
            if admitted else []

        touched = []
        admitted_iter = iter(zip(admitted, decisions))
        for position, status in enumerate(statuses):
            if status is not None:
                continue
            (request, t), (model_name, examples) = next(admitted_iter)
            queue = self.sim.enqueue(model_name, request, examples, t)
            if queue is None:
                statuses[position] = SHED
            else:
                statuses[position] = ACCEPTED
                self.accepted += 1
                touched.append(queue)
        for queue in touched:
            self.sim.drain(queue)
        return statuses  # type: ignore[return-value]

    # -- completion + drain ------------------------------------------------

    def run_until_complete(self, request_id: str) -> ServedRequest:
        """Advance the session until ``request_id``'s completion fires.

        Other work due earlier completes on the way — exactly as it would
        in a batch run.  Raises if the loop drains without producing the
        record (the request was shed or never submitted).
        """
        while request_id not in self.records:
            if self._loop.step() is None:
                raise KeyError(
                    f"request {request_id!r} has no pending completion "
                    "(shed, rate-limited, or never submitted)"
                )
        return self.records[request_id]

    def run_pending(self) -> int:
        """Complete all in-flight work (the flush half of a drain)."""
        return self.sim.run_pending()

    def drain(self) -> int:
        """Graceful drain: finish in-flight work, snapshot, seal the session.

        Runs the event loop to idle so every accepted request completes
        (their records land), then — when a checkpointer
        is configured — takes a full :meth:`Checkpointer.checkpoint`, so a
        warm-restarted gateway resumes from exactly the drained state
        (pinned by ``tests/test_gateway_drain.py``).  Further submissions
        raise; returns the number of events the flush processed.
        """
        processed = self.sim.run_pending()
        self.drained = True
        if self.checkpointer is not None:
            self.checkpointer.checkpoint()
        return processed

    # -- internals ---------------------------------------------------------

    def _check_open(self) -> None:
        if self.drained:
            raise RuntimeError("session is drained; start a new gateway")

    def _admit_tenant(self, request: "Request", t: float) -> bool:
        if self.rate_limiter is None:
            return True
        tenant = str(request.metadata.get("tenant", "default"))
        if self.rate_limiter.admit(tenant, t):
            return True
        self.sim.report.rate_limited.append(RateLimitEvent(
            time_s=t, tenant=tenant, request_id=request.request_id,
        ))
        return False

    def _completed(self, request: "Request", record: ServedRequest) -> None:
        """The simulator's completion callback: learn, record."""
        self.service.on_complete(request, record)
        self.records[record.request_id] = record
