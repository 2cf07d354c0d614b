"""Cosine similarity helpers.

The paper measures request similarity as cosine similarity in [0, 1]
(section 2.3).  Raw cosine lies in [-1, 1]; embeddings produced by the
repo's embedders are non-negative-leaning but not strictly so, so callers
that need the paper's [0, 1] convention use ``rescaled=True``.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D float64 array, bit for bit.

    ``sqrt(v.dot(v))`` *is* numpy's 1-D path, minus its dispatch; callers
    that hold one side of a cosine fixed norm it once with this.
    """
    return math.sqrt(v.dot(v))


def cosine_from_norms(a: np.ndarray, b: np.ndarray,
                      norm_product: float) -> float:
    """:func:`cosine_similarity` of two 1-D float64 arrays whose norms the
    caller already holds (``norm_product`` is their product)."""
    if norm_product < _EPS:
        return 0.0
    sim = float(a.dot(b)) / norm_product
    # max(-1.0, min(1.0, sim)) as two comparisons; NaN clamps to 1.0 in both.
    sim = sim if sim < 1.0 else 1.0
    return sim if sim > -1.0 else -1.0


def cosine_similarity(a: np.ndarray, b: np.ndarray, rescaled: bool = False) -> float:
    """Cosine similarity of two vectors; 0 when either vector is all-zero.

    With ``rescaled=True`` the value is mapped from [-1, 1] to [0, 1],
    matching the paper's similarity scale where 1 means identical requests.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_product = vector_norm(a) * vector_norm(b)
    if norm_product < _EPS:     # before rescaling: "no direction" stays 0
        return 0.0
    sim = cosine_from_norms(a, b, norm_product)
    if rescaled:
        sim = (sim + 1.0) / 2.0
    return sim


def cosine_similarity_matrix(
    queries: np.ndarray, corpus: np.ndarray, rescaled: bool = False
) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``queries`` and ``corpus``."""
    q = np.asarray(queries, dtype=float)
    c = np.asarray(corpus, dtype=float)
    if q.ndim != 2 or c.ndim != 2 or q.shape[1] != c.shape[1]:
        raise ValueError(f"expected 2-D inputs with equal dim: {q.shape}, {c.shape}")
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), _EPS)
    cn = c / np.maximum(np.linalg.norm(c, axis=1, keepdims=True), _EPS)
    sims = np.clip(qn @ cn.T, -1.0, 1.0)
    if rescaled:
        sims = (sims + 1.0) / 2.0
    return sims
