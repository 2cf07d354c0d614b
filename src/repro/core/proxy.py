"""The lightweight helpfulness proxy model (section 4.1, stage 2).

The paper uses a TinyBERT-scale model that takes (new request, candidate
request-response pair) and predicts the example's end-to-end helpfulness,
trained continuously from sampled user feedback.  The substitution here is an
online ridge-regularized linear regressor over hand-built features of the
same inputs — both are "a lightweight model updated asynchronously from
sparse feedback"; only the function class differs.

Features (all observable to a real deployment):

* relevance: cosine similarity between request and example embeddings;
* the example's feedback-quality EMA (how well augmented responses scored);
* the example's source-model cost (a proxy for teacher strength);
* relevance x feedback-quality interaction;
* example length (long examples cost context);
* replayed-ness (refined examples are better).
"""

from __future__ import annotations

import numpy as np

from repro.core.example import Example
from repro.core.table import EMBEDDING, EMBEDDING_ROW_NORM, attached_rows
from repro.embedding.similarity import cosine_similarity, vector_norm

N_FEATURES = 7


def proxy_features(request_embedding: np.ndarray, example: Example) -> np.ndarray:
    """Feature vector for one (request, candidate example) pair."""
    relevance = cosine_similarity(request_embedding, example.embedding)
    feedback = example.feedback_quality
    feedback_q = feedback.value if feedback.initialized else 0.5
    return np.array([
        1.0,
        relevance,
        feedback_q,
        relevance * feedback_q,
        example.source_cost,
        min(1.0, example.tokens / 512.0),
        min(1.0, example.replay_count / 5.0),
    ])


def proxy_features_matrix(request_embedding: np.ndarray,
                          examples: list[Example],
                          attached=None) -> np.ndarray:
    """The (n, N_FEATURES) feature matrix for one request against a
    candidate list — the vectorized counterpart of :func:`proxy_features`.

    Relevance for every candidate comes from a single embedding-matrix
    product (``einsum`` over axis-1 norms) instead of n cosine calls (a BLAS
    dot over 1-D norms), so the two agree to the last few bits, not to the
    bit.  ``attached`` is ``attached_rows(examples)`` if the caller holds it.
    """
    n = len(examples)
    q = np.asarray(request_embedding, dtype=float).reshape(-1)
    if attached is None:
        attached = attached_rows(examples)
    if attached is not None:
        # Columnar fast path: every candidate is attached to the same
        # ExampleTable (the cache-search case — i.e. the serve hot path), so
        # embeddings, their axis-1 norms and the scalar features are
        # fancy-indexed gathers: the rows ``np.stack`` would hold, the norm
        # ``norm(axis=1)`` gives each, and ``np.where``/``np.minimum`` doing
        # the IEEE operations of the per-example expressions below, so
        # utilities stay bit-identical either way.
        table, rows = attached
        cols = table._cols
        emb = cols[EMBEDDING][rows]
        norms = cols[EMBEDDING_ROW_NORM][rows]
    else:
        emb = np.stack([ex.embedding for ex in examples]) if n else \
            np.empty((0, q.shape[0]))
        norms = np.linalg.norm(emb, axis=1)
    denom = norms * vector_norm(q)
    # einsum rather than BLAS gemv: per-row accumulation depends only on row
    # content, so duplicate embeddings get bit-equal relevance (and therefore
    # bit-equal utility) regardless of their position in the candidate list.
    relevance = np.clip(
        np.where(denom < 1e-12, 0.0,
                 np.einsum("ij,j->i", emb, q) / np.maximum(denom, 1e-12)),
        -1.0, 1.0,
    )
    features = np.empty((n, N_FEATURES))
    features[:, 0] = 1.0
    features[:, 1] = relevance
    if attached is not None:
        features[:, 2] = np.where(
            cols["feedback_quality__initialized"][rows],
            cols["feedback_quality__value"][rows], 0.5,
        )
        features[:, 3] = relevance * features[:, 2]
        features[:, 4] = cols["source_cost"][rows]
        features[:, 5] = np.minimum(1.0, cols["tokens"][rows] / 512.0)
        features[:, 6] = np.minimum(1.0, cols["replay_count"][rows] / 5.0)
        return features

    features[:, 2] = [
        ex.feedback_quality.value if ex.feedback_quality.initialized else 0.5
        for ex in examples
    ]
    features[:, 3] = relevance * features[:, 2]
    features[:, 4] = [ex.source_cost for ex in examples]
    # Scalar min/divide per example, not three vectorized ufunc dispatches
    # over a ~20-row column: same IEEE operations on the same values, a
    # third of the wall time at candidate-list sizes.
    features[:, 5] = [min(1.0, ex.tokens / 512.0) for ex in examples]
    features[:, 6] = [min(1.0, ex.replay_count / 5.0) for ex in examples]
    return features


class HelpfulnessProxy:
    """Online linear regression: features -> estimated helpfulness.

    Recursive least squares with a ridge prior; ``update`` ingests one
    (features, observed helpfulness) pair — the sampled-feedback stream of
    section 4.1.  Before any feedback arrives, predictions fall back to a
    relevance-flavoured prior so a cold-started system still ranks candidates
    sensibly.
    """

    def __init__(self, ridge: float = 1.0, prior_relevance_weight: float = 0.1) -> None:
        if ridge <= 0:
            raise ValueError(f"ridge must be positive, got {ridge}")
        self._precision = ridge * np.eye(N_FEATURES)
        # Cold-start prior mean: helpfulness rises mildly with relevance.
        # The prior must be folded into the moment vector (b = ridge * mu0)
        # so early noisy updates *shrink toward* the prior instead of
        # overwriting it — otherwise a single negative label zeroes out
        # relevance ranking and selection starves before it can learn.
        prior_mean = np.zeros(N_FEATURES)
        prior_mean[1] = prior_relevance_weight
        self._moment = ridge * prior_mean
        self._weights = prior_mean.copy()
        # ``update`` only accumulates; the next read solves.  A solve is a
        # pure function of (precision, moment): readers see the same weights.
        self._stale = False
        self.updates = 0

    def _solved(self) -> np.ndarray:
        if self._stale:
            self._weights = np.linalg.solve(self._precision, self._moment)
            self._stale = False
        return self._weights

    def predict(self, request_embedding: np.ndarray, example: Example) -> float:
        """Estimated helpfulness of ``example`` for the request."""
        x = proxy_features(request_embedding, example)
        return float(x @ self._solved())

    def score_batch(self, request_embedding: np.ndarray,
                    examples: list[Example], *, attached=None) -> np.ndarray:
        """Estimated helpfulness of every candidate, as one matrix product.

        The stage-2 hot path: scoring a request's whole stage-1 candidate
        list costs one feature-matrix build plus one ``X @ w`` product
        instead of ``len(examples)`` :meth:`predict` calls.
        """
        if not examples:
            return np.empty(0)
        return proxy_features_matrix(request_embedding, examples,
                                     attached) @ self._solved()

    def update(self, request_embedding: np.ndarray, example: Example,
               observed_utility: float) -> None:
        """Ingest one feedback observation (the next read re-solves)."""
        x = proxy_features(request_embedding, example)
        self._precision += x[:, None] * x     # np.outer(x, x)
        self._moment += observed_utility * x
        self._stale = True
        self.updates += 1

    @property
    def weights(self) -> np.ndarray:
        return self._solved().copy()
