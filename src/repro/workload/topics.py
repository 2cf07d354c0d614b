"""Topic model underlying every synthetic dataset.

Requests are drawn from a pool of topics.  Each topic has a unit base vector
in embedding space; a request's latent is the topic vector plus within-topic
jitter, so same-topic requests have high cosine similarity (the paper's
"semantically similar counterparts") while different topics are near
orthogonal.  Topic popularity follows a Zipf law, which produces both the
pervasive-similarity CDF of Fig. 3(a) (popular topics recur constantly) and
the long-tailed access counts of Fig. 10.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng, spawn_rng, stable_hash

_WORD_BANK = (
    "system cache model request latency server query token batch memory "
    "cluster route example search index network program answer question "
    "translate code math prove sort graph stream shard replica vector"
).split()

JITTER = 0.28   # within-topic spread (see TopicModel)


class TopicModel:
    """Generates latent vectors and template text for a dataset's topics.

    ``JITTER`` controls within-topic spread: two requests from the same topic
    have expected cosine similarity roughly 1 / (1 + JITTER^2), so its
    0.28 lands near 0.93 — comfortably above the paper's 0.8 "strong semantic
    overlap" threshold — while cross-topic pairs in 64 dimensions sit near 0.
    """

    def __init__(self, n_topics: int, dim: int = 64,
                 zipf_exponent: float = 1.1, seed: int = 0) -> None:
        if n_topics < 1:
            raise ValueError(f"n_topics must be >= 1, got {n_topics}")
        if dim < 8:
            raise ValueError(f"dim must be >= 8, got {dim}")
        self.n_topics = n_topics
        self.dim = dim
        self.zipf_exponent = zipf_exponent
        self.seed = seed

        rng = make_rng(stable_hash("topic-model", seed, n_topics, dim))
        bases = rng.normal(0.0, 1.0, size=(n_topics, dim))
        self._bases = bases / np.linalg.norm(bases, axis=1, keepdims=True)
        # Per-topic difficulty centres: some topics are intrinsically harder.
        self._topic_difficulty = rng.uniform(0.15, 0.85, size=n_topics)
        # Zipf popularity over a random permutation of topic ids so topic id
        # order carries no popularity information.
        ranks = np.arange(1, n_topics + 1, dtype=float)
        weights = ranks ** (-zipf_exponent)
        self._popularity = weights / weights.sum()
        self._topic_order = rng.permutation(n_topics)

    @property
    def popularity(self) -> np.ndarray:
        """Sampling probability per topic id."""
        probs = np.zeros(self.n_topics)
        probs[self._topic_order] = self._popularity
        return probs

    def sample_topic(self, rng: np.random.Generator) -> int:
        """Draw a topic id according to Zipf popularity."""
        return int(rng.choice(self.n_topics, p=self.popularity))

    def topic_difficulty(self, topic_id: int) -> float:
        self._check_topic(topic_id)
        return float(self._topic_difficulty[topic_id])

    def sample_latent(self, topic_id: int, rng: np.random.Generator) -> np.ndarray:
        """A request latent: topic base + within-topic jitter, unit norm."""
        self._check_topic(topic_id)
        # Per-component std JITTER/sqrt(dim) gives the noise vector an expected
        # norm of JITTER relative to the unit base vector.
        vec = self._bases[topic_id] + rng.normal(
            0.0, JITTER / np.sqrt(self.dim), size=self.dim
        )
        norm = float(np.linalg.norm(vec))
        return vec / norm

    def sample_difficulty(self, topic_id: int, rng: np.random.Generator,
                          spread: float = 0.12) -> float:
        """A request difficulty around the topic's centre."""
        centre = self.topic_difficulty(topic_id)
        return float(np.clip(rng.normal(centre, spread), 0.0, 1.0))

    def render_text(self, topic_id: int, rng: np.random.Generator,
                    n_words: int, prefix: str = "") -> str:
        """Deterministic filler text tagged with the topic for debuggability.

        Content never matters to the simulation (quality is latent); the text
        exists so cache sizing, tokenization, and PII-sanitization paths
        operate on realistic strings.
        """
        self._check_topic(topic_id)
        word_rng = spawn_rng(rng, "text", topic_id)
        words = [
            _WORD_BANK[int(word_rng.integers(0, len(_WORD_BANK)))]
            for _ in range(max(1, n_words))
        ]
        head = f"{prefix} " if prefix else ""
        return f"{head}[topic-{topic_id}] " + " ".join(words)

    def _check_topic(self, topic_id: int) -> None:
        if not 0 <= topic_id < self.n_topics:
            raise IndexError(
                f"topic_id {topic_id} out of range [0, {self.n_topics})"
            )
