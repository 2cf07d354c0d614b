"""The gateway's deterministic serving core: one writer, one event session.

``GatewaySession`` is the piece that makes the gateway and
:class:`~repro.serving.cluster.ClusterSimulator` *the same system*.  It
opens an incremental run on a real simulator
(:meth:`~repro.serving.cluster.ClusterSimulator.start_sources`) and feeds
network arrivals into it: advance the event loop strictly past earlier
work, make the routing decision against live queue state with the
pipeline's batch router (``pipeline.route_batch``), and hand the routed
requests to :meth:`~repro.serving.cluster.ClusterSimulator.dispatch` — the
one path :class:`~repro.runtime.sources.TraceArrivalSource` dispatches
through when the same trace runs in-process.  Because every step is the
simulator's own machinery on the *same pipeline object*, a trace replayed
through the loopback gateway produces bit-identical decisions and cache
state to the same trace run through ``ClusterSimulator.run`` (pinned by
``tests/test_gateway_equivalence.py``).

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

#: Admission outcomes of :meth:`GatewaySession.submit_batch`.
ACCEPTED = "accepted"
SHED = "shed"
RATE_LIMITED = "rate_limited"
DUPLICATE = "duplicate"


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
        self._loop = self.sim.start_sources([], on_complete=self._completed)
        self.records: dict[str, ServedRequest] = {}
        self._in_flight: set[str] = set()   # accepted ids not yet in records
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
        tests can assert their trace replay never needed one.
        """
        if arrival_time is None:
            return self.sim.now
        if arrival_time < self.sim.now:
            self.late_arrivals += 1
            return self.sim.now
        return float(arrival_time)

    def submit(self, request: "Request",
               arrival_time: float | None = None) -> str:
        """One per-request arrival; returns the admission outcome: a
        :meth:`submit_batch` of one.  The response itself completes later
        — when a subsequent arrival or :meth:`run_pending` advances time
        past the finish event."""
        times = None if arrival_time is None else [arrival_time]
        return self.submit_batch([request], times)[0]

    def submit_batch(self, requests: Sequence["Request"],
                     arrival_times: Sequence[float] | None = None,
                     ) -> list[str]:
        """One micro-batch arrival; returns per-request admission outcomes.

        Mirrors a size-triggered ``TraceArrivalSource`` flush: the batch
        dispatches at the latest member's arrival, decisions for the whole
        batch are made together (one amortized retrieval pass via the
        pipeline's batch router), and each admitted request enqueues at
        its *own* arrival stamp so micro-batching delay is charged to
        queue wait (a queue-depth shed is recorded by the simulator as a
        :class:`~repro.serving.records.ShedEvent`).  Rate limiting applies
        per member, before the batch is routed, so limited members cost no
        pipeline state.  A request id is single-use once accepted, in
        flight or completed: a reuse, or a second member of one batch
        under an id, is :data:`DUPLICATE` before it takes a token or
        moves the pipeline.  Shed and rate-limited ids may retry.  A stamp
        that is not finite refuses the batch before anything moves: it
        would park or poison the clock.
        """
        self._check_open()
        requests = list(requests)
        if arrival_times is None:
            arrival_times = [None] * len(requests)
        elif len(arrival_times) != len(requests):
            raise ValueError(
                f"{len(arrival_times)} arrival times for "
                f"{len(requests)} requests"
            )
        # Checked up front: a refused batch must not have counted clamps.
        elif not all(t is None or math.isfinite(t) for t in arrival_times):
            raise ValueError("arrival stamps must be finite")
        # Screened first: a reused id moves nothing, not even the clock.
        statuses, seen = [], set()
        for request in requests:
            taken = request.request_id in self.records \
                or request.request_id in self._in_flight \
                or request.request_id in seen
            statuses.append(DUPLICATE if taken else None)
            seen.add(request.request_id)
        fresh = [i for i, status in enumerate(statuses) if status is None]
        times = {i: self._resolve_arrival(arrival_times[i]) for i in fresh}
        if not fresh:
            return statuses
        self.sim.advance_to(max(times.values()))

        for i in fresh:
            if not self._admit_tenant(requests[i], times[i]):
                statuses[i] = RATE_LIMITED
        admitted = [i for i in fresh if statuses[i] is None]
        for i in admitted:
            # A context parked under an id never accepted here was shed:
            # its retry decides afresh.
            self.service.pipeline.unpark(requests[i].request_id)
        arrivals = [(requests[i], times[i]) for i in admitted]
        decisions = self.service.pipeline.route_batch(
            [r for r, _ in arrivals], self.sim)
        for i, ok in zip(admitted, self.sim.dispatch(arrivals, decisions)):
            statuses[i] = ACCEPTED if ok else SHED
            if ok:
                self._in_flight.add(requests[i].request_id)
        self.accepted += statuses.count(ACCEPTED)
        return statuses

    # -- completion + drain ------------------------------------------------

    def run_until_complete(self, request_id: str) -> ServedRequest:
        """Advance the session until ``request_id``'s completion fires.

        Other work due earlier completes on the way — exactly as it would
        in a batch run.  Raises if the loop drains without producing the
        record (the request was shed or never submitted).
        """
        while request_id not in self.records:
            if not self._loop.step():
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
        self.service.pipeline.on_complete(request, record)
        self.records[record.request_id] = record
        self._in_flight.discard(record.request_id)
