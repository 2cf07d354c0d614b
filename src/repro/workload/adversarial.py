"""Adversarial arrival processes and request streams (hostile traffic).

The benign poisson/diurnal processes of :mod:`repro.workload.trace` validate
the paper's serving claims under friendly load.  This module generates the
traffic a public deployment actually meets, as composable, seed-stable
generators:

* :func:`flash_crowd_trace` — step + spike composition: a sustained rate
  step (everyone arrives and stays) with an optional onset spike (the
  thundering herd), ramping up, holding, and decaying back down;
* :func:`tenant_skew_trace` — a multi-tenant aggregate whose Zipf exponent
  *moves over time*, so the hot tenant's share of traffic grows (and can
  rotate identity), stressing shard balance and admission fairness;
* :func:`topic_burst_trace` / :func:`correlated_topic_requests` — arrival
  bursts whose requests are *topically correlated* (runs of one topic at a
  time), concentrating admissions into single IVF clusters and thrashing
  the clustering that steady Zipf traffic would leave balanced;
* :func:`composite_trace` — multi-day traces (diurnal envelope per day,
  flash crowds layered on top, maintenance windows where traffic drains)
  for lifecycle scenarios that span several maintenance cycles.

Every generator is deterministic in ``(parameters, seed)`` — the rates and
request streams are bit-identical across calls — so the same scenario can
drive a property test, a chaos run, and a benchmark, and two runs of one
chaos scenario can be compared bit-for-bit (``tests/test_chaos.py``).  The
Hypothesis strategies under ``tests/strategies/`` draw parameters for these
generators; ``docs/TESTING.md`` maps the tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, stable_hash
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request
from repro.workload.trace import ArrivalTrace

__all__ = [
    "FlashCrowd",
    "TenantSkewTrace",
    "TopicBurstTrace",
    "CompositeTrace",
    "flash_crowd_trace",
    "tenant_skew_trace",
    "topic_burst_trace",
    "correlated_topic_requests",
    "composite_trace",
]


@dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd episode: a rate step with an onset spike.

    The multiplier ramps from 1 to ``step_mult`` over ``ramp_s``, holds for
    ``hold_s``, and decays linearly back to 1 over ``decay_s``.
    ``spike_mult`` adds an exponentially-fading transient on top of the
    onset (time constant = the ramp, floored at one second) — the
    retry-storm shape of a thundering herd, distinct from the sustained
    step of genuinely arrived users.
    """

    at_s: float
    ramp_s: float = 10.0
    hold_s: float = 30.0
    decay_s: float = 30.0
    step_mult: float = 6.0
    spike_mult: float = 0.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if min(self.ramp_s, self.hold_s, self.decay_s) < 0:
            raise ValueError("ramp_s/hold_s/decay_s must be >= 0")
        if self.step_mult < 1.0:
            raise ValueError(f"step_mult must be >= 1, got {self.step_mult}")
        if self.spike_mult < 0:
            raise ValueError(f"spike_mult must be >= 0, got {self.spike_mult}")

    @property
    def duration_s(self) -> float:
        return self.ramp_s + self.hold_s + self.decay_s

    def multiplier_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized rate multiplier at times ``t`` (1.0 outside)."""
        t = np.asarray(t, dtype=float)
        dt = t - self.at_s
        mult = np.ones_like(dt)
        ramp_end = self.ramp_s
        hold_end = self.ramp_s + self.hold_s
        # Masked in-place assignment (not np.where) so the divisions only
        # ever see in-window dt values — dt/ramp_s stays in [0, 1) and
        # cannot overflow for arbitrarily tiny ramps.
        in_ramp = (dt >= 0) & (dt < ramp_end)
        if self.ramp_s > 0 and in_ramp.any():
            mult[in_ramp] = 1.0 + (self.step_mult - 1.0) * (
                dt[in_ramp] / self.ramp_s)
        in_hold = (dt >= ramp_end) & (dt < hold_end)
        mult[in_hold] = self.step_mult
        in_decay = (dt >= hold_end) & (dt < self.duration_s)
        if self.decay_s > 0 and in_decay.any():
            frac = (dt[in_decay] - hold_end) / self.decay_s
            mult[in_decay] = self.step_mult + (1.0 - self.step_mult) * frac
        if self.spike_mult > 0:
            tau = max(self.ramp_s, 1.0)
            active = (dt >= 0) & (dt < self.duration_s)
            mult[active] += self.spike_mult * np.exp(-dt[active] / tau)
        return mult


def flash_crowd_trace(duration_s: float, base_rps: float,
                      crowds: list[FlashCrowd] | tuple[FlashCrowd, ...],
                      bucket_seconds: float = 2.0, burstiness: float = 0.0,
                      seed: int = 0) -> ArrivalTrace:
    """Flat base load with flash crowds composed on top.

    Crowds compose multiplicatively (two overlapping crowds stack), so the
    mean rate *rises above* ``base_rps`` during episodes — deliberately not
    renormalized, because absorbing (or shedding) the surplus is the thing
    under test.  ``burstiness > 0`` roughens every bucket with lognormal
    noise.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive: {duration_s}")
    if base_rps < 0:
        raise ValueError(f"base_rps must be >= 0: {base_rps}")
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive: {bucket_seconds}")
    buckets = max(1, int(round(duration_s / bucket_seconds)))
    t = (np.arange(buckets) + 0.5) * (duration_s / buckets)
    envelope = np.ones(buckets)
    for crowd in crowds:
        envelope = envelope * crowd.multiplier_at(t)
    if burstiness > 0:
        rng = make_rng(stable_hash("flash-crowd", seed, buckets))
        envelope = envelope * rng.lognormal(0.0, 0.25 * burstiness,
                                            size=buckets)
    return ArrivalTrace(bucket_seconds=duration_s / buckets,
                        rates_per_second=base_rps * envelope)


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


def correlated_topic_requests(dataset: SyntheticDataset, n: int,
                              mean_burst: float = 8.0, n_hot_topics: int = 6,
                              seed: int = 0) -> list[Request]:
    """A request stream arriving in topic-correlated runs.

    Consecutive requests share one topic for a geometric run length (mean
    ``mean_burst``), with topics drawn from a small hot set — so admissions
    concentrate into single IVF clusters run after run, the churn pattern
    that thrashes clustering where steady Zipf traffic would not.  Returns
    exactly ``n`` requests; bit-identical for the same ``(dataset state,
    parameters, seed)``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if mean_burst < 1.0:
        raise ValueError(f"mean_burst must be >= 1, got {mean_burst}")
    topics = dataset.topics
    if not 1 <= n_hot_topics <= topics.n_topics:
        raise ValueError(
            f"n_hot_topics must be in [1, {topics.n_topics}], "
            f"got {n_hot_topics}"
        )
    base = dataset.generate_requests(n, split="topic-burst")
    rng = make_rng(stable_hash("topic-burst", dataset.profile.name, seed))
    hot = rng.choice(topics.n_topics, size=n_hot_topics, replace=False)
    out: list[Request] = []
    i = 0
    while i < n:
        run_len = 1 + int(rng.geometric(1.0 / mean_burst))
        topic_id = int(hot[int(rng.integers(0, n_hot_topics))])
        for request in base[i:i + run_len]:
            latent = topics.sample_latent(topic_id, rng)
            difficulty = topics.sample_difficulty(topic_id, rng)
            text = topics.render_text(
                topic_id, rng, n_words=max(3, len(request.text.split()) - 2),
                prefix=request.task.value,
            )
            out.append(Request(
                request_id=f"burst-{request.request_id}",
                dataset=request.dataset,
                task=request.task,
                text=text,
                latent=latent,
                topic_id=topic_id,
                difficulty=difficulty,
                prompt_tokens=0,
                target_output_tokens=request.target_output_tokens,
            ))
        i += run_len
    return out


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
