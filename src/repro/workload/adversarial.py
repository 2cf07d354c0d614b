"""Adversarial arrival processes and request streams (hostile traffic).

The benign poisson/diurnal processes of :mod:`repro.workload.trace` validate
the paper's serving claims under friendly load.  This module generates the
traffic a public deployment actually meets, as composable, seed-stable
generators:

* :func:`flash_crowd_trace` — step + spike composition: a sustained rate
  step (everyone arrives and stays) with an optional onset spike (the
  thundering herd), ramping up, holding, and decaying back down;
* :func:`correlated_topic_requests` — requests that arrive *topically
  correlated* (runs of one topic at a time), concentrating admissions into
  single IVF clusters and thrashing the clustering that steady Zipf
  traffic would leave balanced.

Only tests drive the tenant-skew, topic-burst and multi-day composite
generators, so they live in ``tests/adversarial_traces.py``.

Every generator is deterministic in ``(parameters, seed)`` — the rates and
request streams are bit-identical across calls — so the same scenario can
drive a property test, a chaos run, and a benchmark, and two runs of one
chaos scenario can be compared bit-for-bit (``tests/test_chaos.py``).  The
Hypothesis strategies under ``tests/strategies/`` draw parameters for these
generators; ``docs/TESTING.md`` maps the tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.rng import make_rng, stable_hash
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request
from repro.workload.trace import ArrivalTrace

__all__ = [
    "FlashCrowd",
    "flash_crowd_trace",
    "correlated_topic_requests",
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
            out.append(replace(
                request, request_id=f"burst-{request.request_id}", text=text,
                latent=latent, topic_id=topic_id, difficulty=difficulty,
                prompt_tokens=0))
        i += run_len
    return out
