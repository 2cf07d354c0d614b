"""The embedder: a request's latent, recovered with encoder noise.

See the package docstring for its role.  It returns unit-norm float64
vectors so that dot products are cosine similarities.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.embedding.similarity import vector_norm
from repro.utils.rng import make_rng, rng_from_words, seed_words, stable_hash

_EPS = 1e-12

EMBEDDING_DIM = 64        # the service's width, and the workloads' latents'
EMBEDDER_NOISE = 0.05     # std of LatentEmbedder's encoder noise


class Embedder(Protocol):
    """Anything that maps a request's text and latent to a dense vector."""

    dim: int

    def embed(self, text: str, latent: np.ndarray) -> np.ndarray:
        """Return a unit-norm embedding of ``text``."""
        ...


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = vector_norm(vec)
    if norm < _EPS:
        # Degenerate input: fall back to a fixed basis vector so downstream
        # cosine math stays well-defined.
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    if not norm < np.inf:   # a NaN or infinite entry, or an overflowing norm
        raise ValueError("latent is not finite: cannot embed it")
    return vec / norm


class LatentEmbedder:
    """Recovers a request's ground-truth latent vector with encoder noise.

    ``EMBEDDER_NOISE`` models the imperfection of a real text encoder: the
    latent semantics blurred by Gaussian noise of that std.  The noise is a
    deterministic function of the text so repeated embeddings of the same
    request agree (real encoders are deterministic).
    """

    def __init__(self, dim: int = EMBEDDING_DIM) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.dim = dim
        # text -> noise seed words of the last :meth:`prime`, each taken once.
        self._held: dict[str, np.ndarray] = {}

    def embed(self, text: str, latent: np.ndarray) -> np.ndarray:
        vec = np.asarray(latent, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"latent dim {vec.shape} != embedder dim ({self.dim},)")
        words = self._held.pop(text, None) if self._held else None
        noise_rng = rng_from_words(words) if words is not None else \
            make_rng(stable_hash("latent-noise", text))
        return _unit(vec + noise_rng.normal(0.0, EMBEDDER_NOISE, size=self.dim))

    def prime(self, texts: list[str]) -> None:
        """Seed the noise streams of ``texts`` in one pass, for embed."""
        self._held = dict(zip(texts, seed_words(
            stable_hash("latent-noise", text) for text in texts)))

