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

import math

import numpy as np

from repro.core.example import Example
from repro.core.table import EMBEDDING, EMBEDDING_ROW_NORM, attached_rows
from repro.embedding.similarity import cosine_from_norms, vector_norm

N_FEATURES = 7
RIDGE = 1.0                    # prior precision of the regression
PRIOR_RELEVANCE_WEIGHT = 0.1   # cold-start weight on relevance
_STAGE2_COLUMNS = (EMBEDDING, EMBEDDING_ROW_NORM, "embedding_norm", "tokens",
                   "source_cost", "replay_count", "feedback_quality__value",
                   "feedback_quality__initialized")     # what stage 2 reads


def stage2_columns(examples: list[Example], attached=None):
    """``(cols, rows)``, ``cols[name][rows]`` the examples' column ``name``:
    their table's if ``attached`` (:func:`attached_rows`), else copies."""
    if attached is not None:
        return attached[0]._cols, attached[1]
    slots = [(ex.__dict__["_table"]._cols, ex.__dict__["_row"])
             for ex in examples]
    return ({name: np.array([c[name][r] for c, r in slots])
             for name in _STAGE2_COLUMNS}, np.arange(len(slots)))


def proxy_features(request_embedding: np.ndarray, example: Example) -> np.ndarray:
    """One (request, candidate) pair's features, from the example's row: the
    stored ``embedding_norm`` is ``sqrt(v.dot(v))``, ``np.linalg.norm``'s 1-D
    path, bit for bit."""
    d = example.__dict__
    cols, row = d["_table"]._cols, d["_row"]
    relevance = cosine_from_norms(
        request_embedding, cols[EMBEDDING][row],
        vector_norm(request_embedding) * float(cols["embedding_norm"][row]))
    feedback_q = float(cols["feedback_quality__value"][row]) \
        if cols["feedback_quality__initialized"][row] else 0.5
    tokens = cols["tokens"][row] / 512.0    # then min(1.0, x), as a compare
    replayed = cols["replay_count"][row] / 5.0
    return np.array([1.0, relevance, feedback_q, relevance * feedback_q,
                     cols["source_cost"][row], tokens if tokens < 1.0 else 1.0,
                     replayed if replayed < 1.0 else 1.0])


def proxy_features_matrix(request_embeddings: np.ndarray,
                          examples: list[Example], counts: list[int],
                          attached=None) -> np.ndarray:
    """A decision batch's feature matrix, a row per candidate: request ``i``
    (row ``i`` of ``request_embeddings``) against its next ``counts[i]``.
    Relevance is one ``einsum`` against the queries repeated per candidate
    (a BLAS-dot cosine each would differ in the last bits); a row's sum
    depends on that row alone, so it is one request's ``einsum("ij,j->i")``
    bit for bit.  ``attached`` as in :func:`stage2_columns`, or looked up."""
    if not examples:
        return np.empty((0, N_FEATURES))
    queries = np.asarray(request_embeddings, float).reshape(len(counts), -1)
    cols, rows = stage2_columns(
        examples, attached_rows(examples) if attached is None else attached)
    if len(counts) == 1:    # one request: its row and norm broadcast
        qnorms = vector_norm(queries[0])
    else:
        qnorms = np.repeat([vector_norm(q) for q in queries], counts)
        queries = np.repeat(queries, counts, axis=0)
    denom = cols[EMBEDDING_ROW_NORM][rows] * qnorms
    dots = np.einsum("ij,ij->i", cols[EMBEDDING][rows], queries)
    relevance = np.where(denom < 1e-12, 0.0,
                         dots / np.maximum(denom, 1e-12)).clip(-1.0, 1.0)
    features = np.empty((len(examples), N_FEATURES))
    features[:, 0] = 1.0
    features[:, 1] = relevance
    features[:, 2] = np.where(cols["feedback_quality__initialized"][rows],
                              cols["feedback_quality__value"][rows], 0.5)
    features[:, 3] = relevance * features[:, 2]
    features[:, 4] = cols["source_cost"][rows]
    features[:, 5] = np.minimum(1.0, cols["tokens"][rows] / 512.0)
    features[:, 6] = np.minimum(1.0, cols["replay_count"][rows] / 5.0)
    return features


class HelpfulnessProxy:
    """Online linear regression: features -> estimated helpfulness.

    Recursive least squares with a ridge prior; ``update`` ingests one
    (features, observed helpfulness) pair — the sampled-feedback stream of
    section 4.1.  Before any feedback arrives, predictions fall back to a
    relevance-flavoured prior so a cold-started system still ranks candidates
    sensibly.
    """

    def __init__(self) -> None:
        self._precision = RIDGE * np.eye(N_FEATURES)
        # Cold-start prior mean: helpfulness rises mildly with relevance.
        # The prior must be folded into the moment vector (b = RIDGE * mu0)
        # so early noisy updates *shrink toward* the prior instead of
        # overwriting it — otherwise a single negative label zeroes out
        # relevance ranking and selection starves before it can learn.
        prior_mean = np.zeros(N_FEATURES)
        prior_mean[1] = PRIOR_RELEVANCE_WEIGHT
        self._moment = RIDGE * prior_mean
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

    def score_batch(self, request_embeddings: np.ndarray,
                    examples: list[Example], counts: list[int], *,
                    attached=None) -> np.ndarray:
        """Estimated helpfulness of every candidate of a decision batch: one
        feature matrix, then each request's ``X @ w`` on its own slice —
        never one stacked product, whose BLAS gemv rows are not position-
        independent (on ragged batches it differed from the per-request
        products in hundreds of rows per million; slices in none)."""
        features = proxy_features_matrix(request_embeddings, examples, counts,
                                         attached)
        weights = self._solved()
        if len(counts) == 1:        # its slice is the whole matrix
            return features @ weights
        utilities = np.empty(len(examples))
        end = 0
        for count in counts:
            start, end = end, end + count
            utilities[start:end] = features[start:end] @ weights
        return utilities

    def update(self, request_embedding: np.ndarray, example: Example,
               observed_utility: float) -> None:
        """Ingest one feedback observation (the next read re-solves).  A
        non-finite ``observed_utility`` is refused before anything moves: it
        would make the moment, hence every later solve, non-finite."""
        if not -math.inf < observed_utility < math.inf:
            raise ValueError("observed utility must be finite, "
                             f"got {observed_utility!r}")
        x = proxy_features(request_embedding, example)
        self._precision += x[:, None] * x     # np.outer(x, x)
        self._moment += observed_utility * x
        self._stale = True
        self.updates += 1

    @property
    def weights(self) -> np.ndarray:
        return self._solved().copy()
