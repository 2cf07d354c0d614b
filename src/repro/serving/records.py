"""Per-request serving records and run-level reports.

These are the observables behind the paper's serving figures: per-request
latency decompositions (queue wait vs TTFT vs decode) feed the Fig. 12
latency panels, and the run-level aggregates (throughput, offload ratio,
total cost) are the axes of the Fig. 13 quality-throughput Pareto study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import LatencySummary, summarize_latencies


@dataclass
class ServedRequest:
    """One completed request's serving-side observables.

    The latency decomposition follows the paper's serving model (section 6):
    end-to-end latency = queue wait + TTFT + decode.  ``queue_wait_s``
    includes any retrieval micro-batching delay a
    :class:`repro.serving.engine.BatchPolicy` introduces, so batching
    policies are charged honestly in the Fig. 12 latency panels.
    """

    request_id: str
    model_name: str
    arrival_s: float
    start_s: float       # when a replica slot was acquired
    finish_s: float
    ttft_s: float        # generation-side TTFT (excludes queueing)
    quality: float
    prompt_tokens: int
    output_tokens: int
    n_examples: int
    cost: float

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def e2e_latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def observed_ttft_s(self) -> float:
        """User-perceived TTFT: queueing plus prefill."""
        return self.queue_wait_s + self.ttft_s


@dataclass(frozen=True)
class ScalingEvent:
    """One applied replica-count change during a run.

    Emitted by :meth:`ClusterSimulator.apply_scaling` whenever a live
    :class:`~repro.serving.autoscaler.ScalingDecision` actually changes a
    deployment — ``applied_delta`` can be smaller than ``requested_delta``
    when the GPU budget clamps a scale-up (or the one-replica floor clamps
    a scale-down).
    """

    time_s: float
    model_name: str
    requested_delta: int
    applied_delta: int
    replicas: int        # replica count after the change
    total_gpus: int      # cluster-wide GPUs after the change


@dataclass(frozen=True)
class ShedEvent:
    """One request refused at admission because its queue was full.

    Emitted by :meth:`ClusterSimulator.enqueue` when a
    :attr:`~repro.serving.cluster.ClusterConfig.max_queue_depth` is set and
    the routed model's backlog has reached it — the load-shedding backstop
    a production serving tier applies under flash crowds rather than
    letting queue waits grow without bound.
    """

    time_s: float
    model_name: str
    request_id: str


@dataclass(frozen=True)
class RateLimitEvent:
    """One request refused by a per-tenant token bucket.

    Emitted by the serving gateway (:mod:`repro.gateway`) when a tenant's
    :class:`~repro.gateway.limits.TokenBucket` has no tokens at the
    request's logical arrival time — the per-tenant fairness backstop in
    front of the cluster, applied *before* routing so a limited request
    consumes no pipeline state (no RNG draws, no parked context).
    """

    time_s: float
    tenant: str
    request_id: str


@dataclass
class ServingReport:
    """Aggregates over one simulated run.

    Supplies every run-level quantity the evaluation section reports:
    throughput and latency summaries (Fig. 12), offload ratio against a
    named small-model set (Fig. 12a), per-model splits (Fig. 20's
    serving-load panels), and total serving cost (the Fig. 13 Pareto axis).
    ``scaling`` is the timeline of live replica changes when an
    :class:`~repro.runtime.sources.AutoscalerTickSource` drove the run.
    """

    records: list[ServedRequest] = field(default_factory=list)
    scaling: list[ScalingEvent] = field(default_factory=list)
    shed: list[ShedEvent] = field(default_factory=list)
    rate_limited: list[RateLimitEvent] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def duration_s(self) -> float:
        if not self.records:
            return 0.0
        start = min(r.arrival_s for r in self.records)
        end = max(r.finish_s for r in self.records)
        return end - start

    @property
    def throughput_rps(self) -> float:
        duration = self.duration_s
        return self.n / duration if duration > 0 else 0.0

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(r.e2e_latency_s for r in self.records)

    def ttft_summary(self) -> LatencySummary:
        return summarize_latencies(r.observed_ttft_s for r in self.records)

    def offload_ratio(self, small_models: set[str]) -> float:
        """Fraction of requests served by models in ``small_models``."""
        if not self.records:
            return 0.0
        offloaded = sum(1 for r in self.records if r.model_name in small_models)
        return offloaded / self.n

    def by_model(self) -> dict[str, "ServingReport"]:
        split: dict[str, ServingReport] = {}
        for record in self.records:
            split.setdefault(record.model_name, ServingReport()).records.append(record)
        return split

    @property
    def shed_rate(self) -> float:
        """Fraction of admitted-or-shed requests that were shed."""
        total = self.n + len(self.shed)
        return len(self.shed) / total if total else 0.0

    def slo_report(self) -> dict:
        """The run's SLO observables as a JSON-ready dict.

        The quantities an operator's dashboard (and the chaos suite's
        pinned goldens, ``tests/golden/slo_reports.json``) watch: served
        and shed counts, throughput, end-to-end and TTFT latency
        percentiles, per-model serve counts, and the scaling timeline.
        Floats are rounded to 9 decimal places so the dict is stable under
        JSON round-trips.
        """
        def r9(x: float) -> float:
            return round(float(x), 9)

        latency = self.latency_summary()
        ttft = self.ttft_summary()
        return {
            "n_served": self.n,
            "n_shed": len(self.shed),
            "n_rate_limited": len(self.rate_limited),
            "shed_rate": r9(self.shed_rate),
            "throughput_rps": r9(self.throughput_rps),
            "latency_s": {
                "p50": r9(latency.p50), "p90": r9(latency.p90),
                "p99": r9(latency.p99), "max": r9(latency.maximum),
            },
            "ttft_s": {
                "p50": r9(ttft.p50), "p90": r9(ttft.p90),
                "p99": r9(ttft.p99), "max": r9(ttft.maximum),
            },
            "per_model": {
                name: sub.n for name, sub in sorted(self.by_model().items())
            },
            "scaling": [
                [r9(e.time_s), e.model_name, e.applied_delta, e.replicas]
                for e in self.scaling
            ],
            "shed_timeline": [
                [r9(e.time_s), e.model_name] for e in self.shed
            ],
            "rate_limited_timeline": [
                [r9(e.time_s), e.tenant] for e in self.rate_limited
            ],
        }
