"""Query-distribution drift (paper section 8, "Handling Query Distribution
Shift").

User interests move over time: topic popularity drifts and brand-new topics
appear.  ``DriftingWorkload`` wraps a :class:`SyntheticDataset` and produces
request streams whose topic distribution interpolates between the original
Zipf popularity and a re-permuted one, with a configurable share of *novel*
topics that were absent from the historical example bank.

This drives the section-8 benches: the bandit router must adapt its policy
as example utility shifts, and the example manager must rotate fresh topics
into the cache (decay + admission) as stale ones fade.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.utils.rng import make_rng, stable_hash
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request


class DriftingWorkload:
    """A request stream whose topic distribution shifts over time."""

    def __init__(self, dataset: SyntheticDataset, novel_topic_fraction: float = 0.3,
                 seed: int = 0) -> None:
        if not 0.0 <= novel_topic_fraction <= 1.0:
            raise ValueError(
                f"novel_topic_fraction must be in [0, 1]: {novel_topic_fraction}"
            )
        self.dataset = dataset
        self.novel_topic_fraction = novel_topic_fraction
        self._rng = make_rng(stable_hash("drift", dataset.profile.name, seed))
        topics = dataset.topics
        n = topics.n_topics
        # Split the topic space: "historical" topics dominate phase 0;
        # "novel" topics only appear after the shift.
        n_novel = int(round(n * novel_topic_fraction))
        permuted = self._rng.permutation(n)
        self.novel_topics = set(int(t) for t in permuted[:n_novel])
        self.historical_topics = [int(t) for t in permuted[n_novel:]]
        if not self.historical_topics:
            raise ValueError("novel_topic_fraction leaves no historical topics")

    def requests_at_phase(self, n: int, phase: float) -> list[Request]:
        """``n`` requests with drift ``phase`` in [0, 1].

        phase 0.0 draws only historical topics under the original
        popularity; phase 1.0 draws ``novel_topic_fraction`` of traffic from
        novel topics and re-ranks the rest.
        """
        if not 0.0 <= phase <= 1.0:
            raise ValueError(f"phase must be in [0, 1], got {phase}")
        base = self.dataset.generate_requests(n, split=f"drift-{phase:.3f}")
        out = []
        for request in base:
            out.append(self._remap(request, phase))
        return out

    def _remap(self, request: Request, phase: float) -> Request:
        """Re-draw the request's topic according to the drifted mixture."""
        draw_novel = self._rng.uniform() < phase * self.novel_topic_fraction
        if draw_novel:
            topic_id = int(self._rng.choice(sorted(self.novel_topics)))
        else:
            # Historical traffic: interpolate between the original ranking
            # and a rotated one so "hot" topics change identity over time.
            k = len(self.historical_topics)
            rotation = int(phase * k * 0.5)
            rotated = (self.historical_topics[rotation:]
                       + self.historical_topics[:rotation])
            probs = self.dataset.topics.popularity[self.historical_topics]
            probs = probs / probs.sum()
            topic_id = int(self._rng.choice(rotated, p=probs))
        topics = self.dataset.topics
        latent = topics.sample_latent(topic_id, self._rng)
        difficulty = float(np.clip(
            0.5 * topics.topic_difficulty(topic_id)
            + 0.5 * self.dataset.profile.difficulty_mean
            + self._rng.normal(0, self.dataset.profile.difficulty_spread * 0.5),
            0.0, 1.0,
        ))
        text = topics.render_text(topic_id, self._rng,
                                  n_words=max(3, len(request.text.split()) - 2),
                                  prefix=request.task.value)
        return dataclasses.replace(
            request, request_id=f"drift-{request.request_id}", text=text,
            latent=latent, topic_id=topic_id, difficulty=difficulty,
            prompt_tokens=0)

    def historical_requests(self, n: int) -> list[Request]:
        """Phase-0 history used to seed the example bank."""
        return self.requests_at_phase(n, phase=0.0)
