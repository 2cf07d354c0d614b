"""Arrival traces (Azure/Microsoft LLM serving trace, substituted).

The paper's load analysis (Fig. 2) shows two phenomena the serving
experiments depend on: a diurnal envelope, and minute-level bursts where
peak RPS reaches up to 25x the off-peak minimum.  ``azure_like_trace``
generates a per-minute RPS series with both.  ``evaluation_trace`` produces
the 30-minute evaluation window of Fig. 22 (requests arriving in bursts of
0-80 per half-minute bucket).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, stable_hash


@dataclass
class ArrivalTrace:
    """A rate series plus helpers to expand it into arrival timestamps."""

    bucket_seconds: float
    rates_per_second: np.ndarray  # average RPS within each bucket

    def __post_init__(self) -> None:
        rates = self.rates_per_second = np.asarray(self.rates_per_second,
                                                   dtype=float)
        if not 0 < self.bucket_seconds < math.inf:
            raise ValueError(f"bucket_seconds must be positive: {self.bucket_seconds}")
        # NaN propagates through min() and max() and fails the chain.
        if not 0 <= rates.min(initial=0.0) <= rates.max(initial=0.0) < math.inf:
            raise ValueError("rates_per_second must be finite and >= 0")

    @property
    def duration_seconds(self) -> float:
        return self.bucket_seconds * len(self.rates_per_second)

    def peak_to_trough(self) -> float:
        """Max rate over min *positive* rate — the paper's 25x statistic."""
        positive = self.rates_per_second[self.rates_per_second > 0]
        if positive.size == 0:
            return 1.0
        return float(positive.max() / positive.min())

    def arrival_times(self, seed: int = 0) -> np.ndarray:
        """Expand the rate series into Poisson arrival timestamps (sorted)."""
        rng = make_rng(stable_hash("arrivals", seed, len(self.rates_per_second)))
        times: list[float] = []
        for i, rate in enumerate(self.rates_per_second):
            expected = rate * self.bucket_seconds
            count = int(rng.poisson(expected)) if expected > 0 else 0
            start = i * self.bucket_seconds
            times.extend(start + rng.uniform(0, self.bucket_seconds, size=count))
        return np.sort(np.asarray(times))


def azure_like_trace(duration_hours: float = 42.0, mean_rps: float = 2.0,
                     burstiness: float = 1.0, seed: int = 0) -> ArrivalTrace:
    """Diurnal envelope + lognormal minute-level bursts (paper Fig. 2).

    ``burstiness`` scales the minute-level noise; 1.0 reproduces the paper's
    ~25x peak-to-trough ratio.
    """
    if not 0 < duration_hours < math.inf:
        raise ValueError(f"duration_hours must be positive: {duration_hours}")
    rng = make_rng(stable_hash("azure-trace", seed))
    minutes = int(round(duration_hours * 60))
    t = np.arange(minutes, dtype=float)

    # Diurnal: two peaks per day (work morning + evening), trough overnight.
    day_phase = 2 * np.pi * t / (24 * 60)
    diurnal = 1.0 + 0.65 * np.sin(day_phase - np.pi / 2) + 0.25 * np.sin(2 * day_phase)
    diurnal = np.clip(diurnal, 0.12, None)

    # Minute-level multiplicative bursts with occasional large spikes.
    noise = rng.lognormal(mean=0.0, sigma=0.35 * burstiness, size=minutes)
    spikes = np.ones(minutes)
    n_spikes = max(1, minutes // 180)
    spike_at = rng.choice(minutes, size=n_spikes, replace=False)
    spikes[spike_at] = rng.uniform(4.0, 9.0, size=n_spikes) * burstiness
    rates = diurnal * noise * spikes

    # The paper reports peak loads "up to 25x" the off-peak minimum (Fig. 2b);
    # floor the trough so the ratio lands there instead of diverging.
    rates = np.maximum(rates, rates.max() / 25.0)
    rates = rates / rates.mean() * mean_rps
    return ArrivalTrace(bucket_seconds=60.0, rates_per_second=rates)


def poisson_trace(duration_s: float, rate_rps: float,
                  bucket_seconds: float = 10.0) -> ArrivalTrace:
    """A constant-rate open-loop Poisson arrival process.

    The memoryless baseline of queueing analysis: the rate series is flat,
    and :meth:`ArrivalTrace.arrival_times` draws the Poisson counts and
    uniform placements.  Use it for open-loop load experiments where the
    closed-loop trace shapes (diurnal envelope, bursts) would confound the
    effect under study.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive: {duration_s}")
    if not 0 <= rate_rps < math.inf:
        raise ValueError(f"rate_rps must be >= 0: {rate_rps}")
    if not 0 < bucket_seconds < math.inf:
        raise ValueError(f"bucket_seconds must be positive: {bucket_seconds}")
    buckets = max(1, int(round(duration_s / bucket_seconds)))
    return ArrivalTrace(
        bucket_seconds=duration_s / buckets,
        rates_per_second=np.full(buckets, float(rate_rps)),
    )


def diurnal_trace(duration_s: float, mean_rps: float,
                  period_s: float = 86_400.0, peak_to_trough: float = 4.0,
                  burstiness: float = 0.0, bucket_seconds: float = 30.0,
                  seed: int = 0) -> ArrivalTrace:
    """An open-loop diurnal arrival process (compressible day length).

    A sinusoidal envelope whose peak-to-trough ratio is exactly
    ``peak_to_trough``, optionally roughened by lognormal minute-noise
    (``burstiness > 0``), normalized to ``mean_rps``.  Unlike
    :func:`azure_like_trace` the period is a parameter, so serving
    experiments can compress a "day" into minutes of simulated time —
    the load shape behind the live-autoscaling scenarios, where the
    router's bias signal must rise at the peak and relax at the trough.
    """
    if not (0 < duration_s < math.inf and 0 < period_s < math.inf):
        raise ValueError("duration_s and period_s must be positive")
    if not 1.0 <= peak_to_trough < math.inf:
        raise ValueError(f"peak_to_trough must be >= 1, got {peak_to_trough}")
    if not 0 < bucket_seconds < math.inf:
        raise ValueError(f"bucket_seconds must be positive: {bucket_seconds}")
    buckets = max(2, int(round(duration_s / bucket_seconds)))
    t = (np.arange(buckets) + 0.5) * (duration_s / buckets)
    # Amplitude a with (1+a)/(1-a) == peak_to_trough; trough at t=0 so a
    # run starts calm, peaks mid-period, and relaxes again.
    a = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    envelope = 1.0 + a * np.sin(2 * np.pi * t / period_s - np.pi / 2)
    if burstiness > 0:
        rng = make_rng(stable_hash("diurnal-trace", seed, buckets))
        envelope = envelope * rng.lognormal(0.0, 0.3 * burstiness,
                                            size=buckets)
    rates = envelope / envelope.mean() * mean_rps
    return ArrivalTrace(bucket_seconds=duration_s / buckets,
                        rates_per_second=rates)


def evaluation_trace(duration_minutes: float = 30.0, mean_rps: float = 1.0,
                     seed: int = 0) -> ArrivalTrace:
    """The 30-minute evaluation window of Fig. 22: bursty, half-minute buckets.

    The paper replays a 30-minute slice of the Microsoft trace whose
    half-minute arrival counts swing between near-zero and ~80 requests.
    """
    rng = make_rng(stable_hash("eval-trace", seed))
    buckets = int(round(duration_minutes * 2))  # 30-second buckets
    base = rng.lognormal(mean=0.0, sigma=0.7, size=buckets)
    # A couple of pronounced bursts, as visible in Fig. 22.
    n_bursts = max(1, buckets // 12)
    at = rng.choice(buckets, size=n_bursts, replace=False)
    base[at] *= rng.uniform(3.0, 6.0, size=n_bursts)
    rates = base / base.mean() * mean_rps
    return ArrivalTrace(bucket_seconds=30.0, rates_per_second=rates)
