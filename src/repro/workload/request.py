"""The request record flowing through the system."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import make_rng, rng_from_words, seed_words, stable_hash
from repro.utils.tokens import count_tokens


class TaskType(enum.Enum):
    """Task families from Table 1 of the paper."""

    CONVERSATION = "conversation"
    QUESTION_ANSWERING = "question_answering"
    TRANSLATION = "translation"
    CODE_GENERATION = "code_generation"
    MATH_REASONING = "math_reasoning"


@dataclass
class Request:
    """One user request.

    ``latent`` is the ground-truth semantic vector the workload generator
    assigned; real systems never see it directly — they see the (noisy)
    embedding produced by :class:`repro.embedding.LatentEmbedder`.
    ``difficulty`` in [0, 1] is likewise latent; routing components only get
    the noisy :meth:`observable_difficulty`.
    """

    request_id: str
    dataset: str
    task: TaskType
    text: str
    latent: np.ndarray
    topic_id: int
    difficulty: float
    prompt_tokens: int
    target_output_tokens: int
    arrival_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError(
                f"difficulty must be in [0, 1], got {self.difficulty} "
                f"for request {self.request_id}"
            )
        if self.prompt_tokens <= 0:
            self.prompt_tokens = max(1, count_tokens(self.text))

    _difficulty_estimate = None   # set on first read, or by prime_difficulty

    def observable_difficulty(self) -> float:
        """A deterministic noisy view of difficulty, as a router feature.

        Real routers estimate complexity from the text (length, phrasing);
        this models that estimate as ground truth plus encoder-style noise
        (std 0.08) that is a pure function of the request id.
        """
        estimate = self._difficulty_estimate
        if estimate is None:
            estimate = self._estimate(make_rng(
                stable_hash("difficulty-estimate", self.request_id)))
        return estimate

    def _estimate(self, rng) -> float:
        est = self.difficulty + rng.normal(0.0, 0.08)
        got = self._difficulty_estimate = float(min(1.0, max(0.0, est)))
        return got

    @property
    def plaintext_bytes(self) -> int:
        """Size of the request text, used in cache-capacity accounting."""
        return len(self.text.encode("utf-8"))


def prime_difficulty(requests: list[Request]) -> None:
    """Fill the difficulty estimates of ``requests`` in one seeding pass."""
    todo = [r for r in requests if r._difficulty_estimate is None]
    for request, row in zip(todo, seed_words(
            stable_hash("difficulty-estimate", r.request_id) for r in todo)):
        request._estimate(rng_from_words(row))
