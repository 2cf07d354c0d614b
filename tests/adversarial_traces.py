"""Adversarial arrival traces that only tests drive.

Kept here as they were in ``repro.workload.adversarial``, beside the flash
crowd and correlated-topic generators that stay there, because no entry
point (the service, the gateway, the persistence CLI, ``benchmarks/``,
``bench_e2e/``, ``examples/``) runs them:

* :func:`tenant_skew_trace` — a multi-tenant aggregate whose Zipf exponent
  *moves over time*, so the hot tenant's share of traffic grows (and can
  rotate identity), stressing shard balance and admission fairness;
* :func:`topic_burst_trace` — sustained burst windows, to pair with
  :func:`~repro.workload.adversarial.correlated_topic_requests`;
* :func:`composite_trace` — multi-day traces (diurnal envelope per day,
  flash crowds layered on top, maintenance windows where traffic drains)
  for lifecycle scenarios that span several maintenance cycles.

Every generator is deterministic in ``(parameters, seed)``, and
``tests/golden/slo_reports.json`` pins the tenant-skew scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, stable_hash
from repro.workload.adversarial import FlashCrowd
from repro.workload.trace import ArrivalTrace


@dataclass
class TenantSkewTrace(ArrivalTrace):
    """An :class:`ArrivalTrace` with a per-bucket tenant decomposition.

    ``tenant_shares[i, j]`` is tenant ``j``'s share of bucket ``i``'s rate
    (rows sum to 1); ``zipf_exponents[i]`` is the skew parameter in force
    at bucket ``i``.
    """

    tenant_shares: np.ndarray = None
    zipf_exponents: np.ndarray = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.tenant_shares = np.asarray(self.tenant_shares, dtype=float)
        self.zipf_exponents = np.asarray(self.zipf_exponents, dtype=float)
        if self.tenant_shares.shape[0] != len(self.rates_per_second):
            raise ValueError("tenant_shares must have one row per bucket")

    @property
    def n_tenants(self) -> int:
        return self.tenant_shares.shape[1]


def tenant_skew_trace(duration_s: float, mean_rps: float,
                      n_tenants: int = 16, zipf_start: float = 1.05,
                      zipf_end: float = 1.8,
                      rotate_hot_every_s: float | None = None,
                      bucket_seconds: float = 10.0, burstiness: float = 0.4,
                      seed: int = 0) -> TenantSkewTrace:
    """Multi-tenant aggregate whose Zipf skew drifts over the run.

    The per-tenant popularity follows a Zipf law whose exponent moves
    linearly from ``zipf_start`` to ``zipf_end`` across the trace — early
    traffic is spread across tenants, late traffic concentrates on the
    head.  ``rotate_hot_every_s`` additionally rotates *which* tenant holds
    each rank on that cadence, so the hot tenant changes identity (the
    shard-rebalance nightmare).  Per-tenant lognormal noise keeps the
    aggregate bursty; the series is normalized so its mean is ``mean_rps``.
    """
    if duration_s <= 0 or bucket_seconds <= 0:
        raise ValueError("duration_s and bucket_seconds must be positive")
    if mean_rps < 0:
        raise ValueError(f"mean_rps must be >= 0: {mean_rps}")
    if n_tenants < 2:
        raise ValueError(f"n_tenants must be >= 2, got {n_tenants}")
    if zipf_start <= 0 or zipf_end <= 0:
        raise ValueError("zipf exponents must be positive")
    if rotate_hot_every_s is not None and rotate_hot_every_s <= 0:
        raise ValueError("rotate_hot_every_s must be positive when given")
    buckets = max(2, int(round(duration_s / bucket_seconds)))
    t = (np.arange(buckets) + 0.5) * (duration_s / buckets)
    exponents = zipf_start + (zipf_end - zipf_start) * (t / duration_s)

    rng = make_rng(stable_hash("tenant-skew", seed, n_tenants, buckets))
    # Rank -> tenant assignment; rotated on a cadence when requested so the
    # head of the Zipf moves across tenant identities.
    base_order = rng.permutation(n_tenants)
    ranks = np.arange(1, n_tenants + 1, dtype=float)
    shares = np.empty((buckets, n_tenants))
    for i in range(buckets):
        weights = ranks ** (-exponents[i])
        weights /= weights.sum()
        rotation = (0 if rotate_hot_every_s is None
                    else int(t[i] / rotate_hot_every_s) % n_tenants)
        order = np.roll(base_order, rotation)
        shares[i, order] = weights
    noise = (rng.lognormal(0.0, 0.3 * burstiness, size=(buckets, n_tenants))
             if burstiness > 0 else np.ones((buckets, n_tenants)))
    weighted = shares * noise
    rates = weighted.sum(axis=1)
    shares = weighted / rates[:, None]
    if rates.mean() > 0:
        rates = rates / rates.mean() * mean_rps
    return TenantSkewTrace(
        bucket_seconds=duration_s / buckets, rates_per_second=rates,
        tenant_shares=shares, zipf_exponents=exponents,
    )


@dataclass
class TopicBurstTrace(ArrivalTrace):
    """An :class:`ArrivalTrace` with contiguous burst windows attached.

    ``burst_windows`` are ``(start_s, end_s)`` intervals during which the
    rate is multiplied up; pair with :func:`correlated_topic_requests` so
    the surging arrivals are also topically correlated.
    """

    burst_windows: list[tuple[float, float]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.burst_windows = [(float(a), float(b))
                              for a, b in (self.burst_windows or [])]


def topic_burst_trace(duration_s: float, mean_rps: float, n_bursts: int = 4,
                      burst_mult: float = 5.0,
                      burst_len_s: float | None = None,
                      bucket_seconds: float = 5.0,
                      seed: int = 0) -> TopicBurstTrace:
    """Contiguous rate bursts (one per segment), normalized to ``mean_rps``.

    Unlike the iid minute-spikes of ``azure_like_trace``, each burst is a
    *sustained window* — the arrival shape of a trending topic — placed at
    a seed-stable random offset inside its own equal segment of the trace
    so bursts never overlap.
    """
    if duration_s <= 0 or bucket_seconds <= 0:
        raise ValueError("duration_s and bucket_seconds must be positive")
    if mean_rps < 0:
        raise ValueError(f"mean_rps must be >= 0: {mean_rps}")
    if n_bursts < 1:
        raise ValueError(f"n_bursts must be >= 1, got {n_bursts}")
    if burst_mult < 1.0:
        raise ValueError(f"burst_mult must be >= 1, got {burst_mult}")
    segment = duration_s / n_bursts
    if burst_len_s is None:
        burst_len_s = segment / 4.0
    if not 0 < burst_len_s <= segment:
        raise ValueError(
            f"burst_len_s must be in (0, {segment:.3f}], got {burst_len_s}"
        )
    rng = make_rng(stable_hash("topic-burst-trace", seed, n_bursts))
    buckets = max(1, int(round(duration_s / bucket_seconds)))
    t = (np.arange(buckets) + 0.5) * (duration_s / buckets)
    envelope = np.ones(buckets)
    windows: list[tuple[float, float]] = []
    for b in range(n_bursts):
        offset = float(rng.uniform(0.0, segment - burst_len_s))
        start = b * segment + offset
        end = start + burst_len_s
        windows.append((start, end))
        envelope = np.where((t >= start) & (t < end), envelope * burst_mult,
                            envelope)
    rates = envelope / envelope.mean() * mean_rps
    return TopicBurstTrace(bucket_seconds=duration_s / buckets,
                           rates_per_second=rates, burst_windows=windows)


@dataclass
class CompositeTrace:
    """A multi-day scenario: trace plus the structure that produced it.

    ``maintenance_windows`` are the drained intervals (feed them to a
    :class:`~repro.runtime.sources.MaintenanceTickSource` horizon or use
    them to schedule chaos); ``crowds`` are the flash-crowd episodes
    layered onto the diurnal envelope.
    """

    trace: ArrivalTrace
    crowds: list[FlashCrowd]
    maintenance_windows: list[tuple[float, float]]

    @property
    def duration_s(self) -> float:
        return self.trace.duration_seconds


def composite_trace(days: int = 3, seconds_per_day: float = 1200.0,
                    mean_rps: float = 2.0, peak_to_trough: float = 4.0,
                    crowds_per_day: int = 1,
                    crowd_step_mult: float = 6.0,
                    maintenance_len_s: float | None = None,
                    maintenance_depth: float = 0.25,
                    burstiness: float = 0.2, bucket_seconds: float = 10.0,
                    seed: int = 0) -> CompositeTrace:
    """Multi-day composite: diurnal days + flash crowds + maintenance dips.

    Each simulated "day" (compressible, like ``diurnal_trace``) carries a
    sinusoidal envelope (trough at the day boundary, peak mid-day), one
    maintenance window at the trough where traffic drains to
    ``maintenance_depth`` of normal, and ``crowds_per_day`` flash crowds at
    seed-stable random daytime offsets.  The whole series is normalized to
    ``mean_rps``.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if seconds_per_day <= 0 or bucket_seconds <= 0:
        raise ValueError("seconds_per_day and bucket_seconds must be positive")
    if peak_to_trough < 1.0:
        raise ValueError(f"peak_to_trough must be >= 1, got {peak_to_trough}")
    if not 0.0 < maintenance_depth <= 1.0:
        raise ValueError(
            f"maintenance_depth must be in (0, 1], got {maintenance_depth}"
        )
    if crowds_per_day < 0:
        raise ValueError(f"crowds_per_day must be >= 0, got {crowds_per_day}")
    duration_s = days * seconds_per_day
    if maintenance_len_s is None:
        maintenance_len_s = seconds_per_day * 0.05
    if not 0 < maintenance_len_s < seconds_per_day / 2:
        raise ValueError(
            f"maintenance_len_s must be in (0, {seconds_per_day / 2:.1f}), "
            f"got {maintenance_len_s}"
        )
    rng = make_rng(stable_hash("composite-trace", seed, days))
    buckets = max(2, int(round(duration_s / bucket_seconds)))
    t = (np.arange(buckets) + 0.5) * (duration_s / buckets)

    a = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    envelope = 1.0 + a * np.sin(2 * np.pi * t / seconds_per_day - np.pi / 2)

    crowds: list[FlashCrowd] = []
    windows: list[tuple[float, float]] = []
    for day in range(days):
        day_start = day * seconds_per_day
        # Maintenance at the trough: the window straddles the day start.
        win_start = day_start + seconds_per_day * 0.01
        windows.append((win_start, win_start + maintenance_len_s))
        for _ in range(crowds_per_day):
            # Daytime only (25%..75% of the day), clear of maintenance.
            at = day_start + float(
                rng.uniform(0.25, 0.75)) * seconds_per_day
            crowds.append(FlashCrowd(
                at_s=at,
                ramp_s=seconds_per_day * 0.01,
                hold_s=seconds_per_day * 0.04,
                decay_s=seconds_per_day * 0.04,
                step_mult=crowd_step_mult,
                spike_mult=crowd_step_mult / 2.0,
            ))
    for crowd in crowds:
        envelope = envelope * crowd.multiplier_at(t)
    for start, end in windows:
        envelope = np.where((t >= start) & (t < end),
                            envelope * maintenance_depth, envelope)
    if burstiness > 0:
        envelope = envelope * rng.lognormal(0.0, 0.25 * burstiness,
                                            size=buckets)
    rates = envelope / envelope.mean() * mean_rps
    trace = ArrivalTrace(bucket_seconds=duration_s / buckets,
                         rates_per_second=rates)
    return CompositeTrace(trace=trace, crowds=crowds,
                          maintenance_windows=windows)
