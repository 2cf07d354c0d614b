"""Embedder implementations.

See the package docstring for the role each embedder plays.  Both return
unit-norm float64 vectors so that dot products are cosine similarities.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.embedding.similarity import vector_norm
from repro.utils.rng import make_rng, stable_hash

_EPS = 1e-12


class Embedder(Protocol):
    """Anything that maps text (plus optional latent) to a dense vector."""

    dim: int

    def embed(self, text: str, latent: np.ndarray | None = None) -> np.ndarray:
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
    return vec / norm


class LatentEmbedder:
    """Recovers a request's ground-truth latent vector with encoder noise.

    ``noise_scale`` models the imperfection of a real text encoder: 0.0 means
    the embedding *is* the latent semantics, larger values blur topical
    structure.  The noise is a deterministic function of the text so repeated
    embeddings of the same request agree (real encoders are deterministic).
    """

    def __init__(self, dim: int = 64, noise_scale: float = 0.05) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        self.dim = dim
        self.noise_scale = noise_scale
        # The latent-free fallback is stateless given (dim, seed); building
        # it once here instead of per embed() call avoids regenerating its
        # (buckets, dim) projection matrix on every free-text request.
        self._fallback = HashingEmbedder(dim=dim)

    def embed(self, text: str, latent: np.ndarray | None = None) -> np.ndarray:
        if latent is None:
            # No latent available (e.g. free text typed by a user): degrade
            # gracefully to the hashing path at the same dimensionality.
            return self._fallback.embed(text)
        vec = np.asarray(latent, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"latent dim {vec.shape} != embedder dim ({self.dim},)")
        if self.noise_scale > 0:
            noise_rng = make_rng(stable_hash("latent-noise", text))
            vec = vec + noise_rng.normal(0.0, self.noise_scale, size=self.dim)
        return _unit(vec)


class HashingEmbedder:
    """Hashed character n-grams + fixed random projection.

    Deterministic, vocabulary-free, and cheap — the standard feature-hashing
    construction.  Similar strings share n-grams and therefore land close in
    the embedding space, which is all the retrieval pipeline needs.
    """

    def __init__(self, dim: int = 64, ngram: int = 3, buckets: int = 4096,
                 seed: int = 7) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if ngram < 1:
            raise ValueError(f"ngram must be >= 1, got {ngram}")
        if buckets < dim:
            raise ValueError(f"buckets ({buckets}) must be >= dim ({dim})")
        self.dim = dim
        self.ngram = ngram
        self.buckets = buckets
        # A fixed projection shared by every embed() call makes the embedder a
        # pure function of its input text.
        proj_rng = make_rng(stable_hash("hashing-embedder", seed, dim, buckets))
        self._projection = proj_rng.normal(0.0, 1.0 / np.sqrt(dim), size=(buckets, dim))

    def embed(self, text: str, latent: np.ndarray | None = None) -> np.ndarray:
        counts = np.zeros(self.buckets)
        padded = f" {text.lower().strip()} "
        if len(padded) < self.ngram:
            padded = padded.ljust(self.ngram)
        for i in range(len(padded) - self.ngram + 1):
            gram = padded[i : i + self.ngram]
            counts[stable_hash("ngram", gram) % self.buckets] += 1.0
        if counts.sum() > 0:
            counts = counts / np.linalg.norm(counts)
        return _unit(counts @ self._projection)
