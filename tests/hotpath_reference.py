"""The read path and post-response learning as they were before the
per-request floor was flattened, kept verbatim as bit-equality oracles.

Every function here is the body its namesake under ``src/repro/`` had at
the commit before that rewrite: scalar numpy where the package now does the
same IEEE operation in Python floats (``np.clip``, ``np.linalg.norm``,
``np.mean``, ``.std()``, ``Generator.uniform()``), three ``ColumnEMA.update``
round trips per used example, an eager ``np.linalg.solve`` per proxy
update, ``np.stack`` over per-example embeddings with a fresh axis-1 norm,
a ``ScoredExample`` per candidate, and one ``int()``/``float()`` round trip
per search hit.  The rewritten forms must return the same values to the
last bit and leave every generator in the same state
(``tests/test_hotpath_exact.py``).

Functions that replace a method take the instance as ``self``, and
:func:`install` monkeypatches the whole set back into the package, so a
serving scenario can be run on the old arithmetic and compared byte for
byte with the new.  Where an internal call shape changed since (the proxy is
handed ``attached_rows``; the router passes sampled scores as a list), the
reference accepts the new shape and does its old work.
"""

from __future__ import annotations

import numpy as np

from repro.core.example import Example
from repro.core.replay import replay_gain
from repro.core.router import RoutingChoice
from repro.core.selector import ScoredExample
from repro.core.table import attached_rows
from repro.llm.icl import (
    DISTRACT_GATE,
    DISTRACTION_PENALTY,
    REL_FULL,
    REL_GATE,
    TRANSFER_EFFICIENCY,
    example_utility,
)
from repro.vectorstore.flat import STORAGE_DTYPE, SearchResult

N_FEATURES = 7
_EPS = 1e-12


# -- embedding/similarity.py, embedding/embedder.py, llm/quality.py --------

def vector_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def clip_unit(x: float) -> float:
    return float(np.clip(x, 0.0, 1.0))


def cosine_similarity(a: np.ndarray, b: np.ndarray,
                      rescaled: bool = False) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom < _EPS:
        return 0.0
    sim = float(np.dot(a, b) / denom)
    sim = max(-1.0, min(1.0, sim))
    if rescaled:
        sim = (sim + 1.0) / 2.0
    return sim


# -- llm/icl.py -------------------------------------------------------------

def _smoothstep(x: float) -> float:
    t = min(1.0, max(0.0, x))
    return t * t * (3.0 - 2.0 * t)


def boost(self, request_latent: np.ndarray, examples: list,
          base_quality: float) -> float:
    if not examples:
        return 0.0
    positive_sum = 0.0
    distraction = 0.0
    best_teacher = 0.0
    q = np.asarray(request_latent, dtype=float)
    qnorm = np.linalg.norm(q)
    for example in examples:
        denom = float(qnorm * np.linalg.norm(example.latent))
        if denom < 1e-12:
            relevance = 0.0
        else:
            relevance = float(np.dot(q, example.latent) / denom)
            relevance = max(-1.0, min(1.0, relevance))
        if relevance < DISTRACT_GATE:
            distraction += DISTRACTION_PENALTY
        else:
            gate = _smoothstep(
                (relevance - REL_GATE) / (REL_FULL - REL_GATE)
            )
            positive_sum += gate * max(0.0, example.quality - base_quality)
            if relevance >= REL_GATE:
                best_teacher = max(best_teacher, example.quality)

    gain = self.max_boost * (1.0 - np.exp(-positive_sum / self.saturation))
    if best_teacher > 0.0:
        cap = max(
            0.0,
            TRANSFER_EFFICIENCY * (best_teacher - base_quality)
            + self.exceed_margin,
        )
        gain = min(gain, cap)
    else:
        gain = 0.0
    return float(gain - distraction)


# -- core/proxy.py ----------------------------------------------------------

def proxy_features(request_embedding: np.ndarray,
                   example: Example) -> np.ndarray:
    relevance = cosine_similarity(request_embedding, example.embedding)
    feedback_q = (
        example.feedback_quality.value if example.feedback_quality.initialized
        else 0.5
    )
    tokens_norm = min(1.0, example.tokens / 512.0)
    replayed = min(1.0, example.replay_count / 5.0)
    return np.array([
        1.0,
        relevance,
        feedback_q,
        relevance * feedback_q,
        example.source_cost,
        tokens_norm,
        replayed,
    ])


def proxy_features_matrix(request_embedding: np.ndarray,
                          examples: list[Example],
                          attached=None) -> np.ndarray:
    # ``attached`` is ignored: this form stacks and re-norms per call.
    n = len(examples)
    q = np.asarray(request_embedding, dtype=float).reshape(-1)
    emb = np.stack([ex.embedding for ex in examples]) if n else \
        np.empty((0, q.shape[0]))
    denom = np.linalg.norm(emb, axis=1) * float(np.linalg.norm(q))
    relevance = np.clip(
        np.where(denom < 1e-12, 0.0,
                 np.einsum("ij,j->i", emb, q) / np.maximum(denom, 1e-12)),
        -1.0, 1.0,
    )
    features = np.empty((n, N_FEATURES))
    features[:, 0] = 1.0
    features[:, 1] = relevance

    attached = attached_rows(examples)
    if attached is not None:
        table, rows = attached
        cols = table._cols
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
    features[:, 5] = [min(1.0, ex.tokens / 512.0) for ex in examples]
    features[:, 6] = [min(1.0, ex.replay_count / 5.0) for ex in examples]
    return features


def proxy_update(self, request_embedding: np.ndarray, example: Example,
                 observed_utility: float) -> None:
    x = proxy_features(request_embedding, example)
    self._precision += np.outer(x, x)
    self._moment += observed_utility * x
    self._weights = np.linalg.solve(self._precision, self._moment)
    self.updates += 1


# -- core/manager.py --------------------------------------------------------

def record_use(self, example: Example, response_quality: float,
               model_cost: float, offloaded: bool) -> None:
    example.gain_ema.update(replay_gain(response_quality, model_cost))
    example.feedback_quality.update(response_quality)
    example.offload_gain.update(1.0 if offloaded else 0.0)
    self._maybe_decay()


# -- core/selector.py -------------------------------------------------------

def _pair_similarity(a: Example, b: Example) -> float:
    denom = float(a.embedding_norm * b.embedding_norm)
    if denom < 1e-12:
        return 0.0
    sim = float(np.dot(a.embedding, b.embedding) / denom)
    return max(-1.0, min(1.0, sim))


def select(self, request_embedding: np.ndarray) -> list[ScoredExample]:
    self._requests_seen += 1
    if self._requests_seen % self.config.adapt_every == 0:
        self._adapt_threshold()

    candidates = self.cache.search(request_embedding, self.config.pre_k)
    scored = _stage2(self, request_embedding, candidates)
    return _combine(self, scored)


def select_batch(self, request_embeddings: np.ndarray
                 ) -> list[list[ScoredExample]]:
    embeddings = np.atleast_2d(np.asarray(request_embeddings, dtype=float))
    stage1 = self.cache.search_batch(embeddings, self.config.pre_k)
    combinations: list[list[ScoredExample]] = []
    for embedding, candidates in zip(embeddings, stage1):
        self._requests_seen += 1
        if self._requests_seen % self.config.adapt_every == 0:
            self._adapt_threshold()
        scored = _stage2(self, embedding, candidates)
        combinations.append(_combine(self, scored))
    return combinations


def _stage2(self, request_embedding, candidates) -> list[ScoredExample]:
    examples = [example for example, _ in candidates]
    utilities = self.proxy.score_batch(request_embedding, examples)
    attached = attached_rows(examples)
    if attached is not None:
        table, rows = attached
        token_counts = table.col("tokens")[rows].tolist()
    else:
        token_counts = [example.tokens for example in examples]
    scored = []
    for (example, relevance), utility, tokens in zip(
            candidates, utilities, token_counts):
        utility = float(utility)
        scored.append(ScoredExample(example, relevance, utility))
        self._recent_scored.append((utility, tokens))
    window = 10 * self.config.pre_k
    if len(self._recent_scored) > 2 * window:
        self._recent_scored = self._recent_scored[-window:]
    return scored


def _combine(self, scored: list[ScoredExample]) -> list[ScoredExample]:
    viable = [s for s in scored if s.utility >= self.utility_threshold]
    viable.sort(key=lambda s: s.utility, reverse=True)

    chosen: list[ScoredExample] = []
    budget = self.config.context_budget_tokens
    for candidate in viable:
        if len(chosen) >= self.config.max_examples:
            break
        if candidate.example.tokens > budget:
            continue
        redundancy = max(
            (_pair_similarity(candidate.example, c.example)
             for c in chosen),
            default=0.0,
        )
        effective = candidate.utility - self.config.diversity_weight * max(
            0.0, redundancy - 0.9
        )
        if effective < self.utility_threshold:
            continue
        chosen.append(candidate)
        budget -= candidate.example.tokens

    for selection in chosen:
        selection.example.record_access()
    chosen.sort(key=lambda s: s.utility)
    return chosen


# -- core/router.py ---------------------------------------------------------

def routing_features(request, examples: list[ScoredExample]) -> np.ndarray:
    utilities = [s.utility for s in examples]
    relevances = [s.relevance for s in examples]
    return np.array([
        1.0,
        request.observable_difficulty(),
        len(examples) / 5.0,
        max(utilities, default=0.0),
        float(np.mean(utilities)) if utilities else 0.0,
        max(relevances, default=0.0),
        min(1.0, request.prompt_tokens / 1024.0),
    ])


def _mean_score(posterior, x: np.ndarray) -> float:
    return float(x @ posterior._posterior()[0])


def _sampled_score(posterior, x: np.ndarray,
                   rng: np.random.Generator) -> float:
    mean, _, chol = posterior._posterior()
    weights = mean + rng.standard_normal(mean.shape[0]) @ chol.T
    return float(x @ weights)


def _load_bias(self, load: float) -> float:
    overload = max(0.0, load - self.config.load_threshold)
    return self.config.bias_lambda * float(
        np.tanh(self.config.bias_gamma * overload))


def route(self, request, examples: list[ScoredExample],
          load: float | None = None) -> RoutingChoice:
    self.decisions += 1
    if load is not None:
        self.observe_load(load)
    effective_load = self.load_ema.value

    x = routing_features(request, examples)
    bias = _load_bias(self, effective_load)

    mean_scores = {}
    sampled_scores = {}
    biased_scores = {}
    for arm in self.arms:
        posterior = self._posteriors[arm.model_name]
        mean_scores[arm.model_name] = _mean_score(posterior, x)
        sampled = _sampled_score(posterior, x, self._rng)
        sampled_scores[arm.model_name] = sampled
        biased_scores[arm.model_name] = sampled - bias * arm.cost

    if self._rng.uniform() < self.config.exploration_floor:
        chosen = self.arms[int(self._rng.integers(0, len(self.arms)))].model_name
    else:
        chosen = max(biased_scores, key=biased_scores.get)

    solicit, challenger = feedback_decision(
        self, chosen, mean_scores, sampled_scores
    )
    if solicit:
        self.feedback_solicitations += 1
    return RoutingChoice(
        model_name=chosen,
        features=x,
        mean_scores=mean_scores,
        biased_scores=biased_scores,
        solicit_feedback=solicit,
        challenger=challenger,
        load=effective_load,
    )


def feedback_decision(self, chosen: str, mean_scores: dict[str, float],
                      sampled_scores) -> tuple[bool, str | None]:
    if not isinstance(sampled_scores, dict):    # today's shape: arm order
        sampled_scores = dict(zip((arm.model_name for arm in self.arms),
                                  sampled_scores))
    scores = np.array(list(mean_scores.values())) / self.config.uncertainty_temp
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    if float(probs.std()) >= self.config.uncertainty_std_gate:
        return False, None
    others = {
        name: score for name, score in sampled_scores.items() if name != chosen
    }
    if not others:
        return False, None
    challenger = max(others, key=others.get)
    return True, challenger


def arm_update(self, x: np.ndarray, reward: float) -> None:
    self._precision += np.outer(x, x)
    self._moment += reward * x
    self.pulls += 1
    self._posterior_memo = None


# -- core/service.py --------------------------------------------------------

def learn(self, ctx) -> None:
    choice = ctx.choice
    quality = ctx.result.quality

    if self.router_enabled and choice.mean_scores:
        if choice.solicit_feedback and choice.challenger is not None:
            self._solicited_update(ctx)
        elif self._rng.uniform() < self.config.feedback_sample_rate:
            rating = self.feedback.rating(quality)
            self.router.update(choice.model_name, choice.features, rating)
            self.stats.router_updates += 1

    small = self.models[self.small_name]
    for scored in ctx.examples:
        if ctx.offloaded:
            self.manager.record_use(
                scored.example,
                response_quality=quality,
                model_cost=self.arm_costs[choice.model_name],
                offloaded=True,
            )
        if self._rng.uniform() < self.config.feedback_sample_rate:
            true_utility = example_utility(
                ctx.request.latent,
                scored.example.view(),
                small.base_quality(ctx.request),
            )
            observed = true_utility + self._rng.normal(
                0.0, self.config.feedback_noise * 0.5
            )
            self.proxy.update(ctx.embedding, scored.example, observed)
            self.stats.proxy_updates += 1


# -- vectorstore/ivf.py -----------------------------------------------------

def ivf_search(self, query: np.ndarray, k: int) -> list[SearchResult]:
    self._maybe_train()
    if self._centroids is None:
        return self._flat.search(query, k)

    raw = np.asarray(query)
    question = (raw.dtype.char, raw.tobytes(), self.nprobe,
                self.trainings, self._churn)
    # The single (question, top hit) slot the index carried before its
    # per-cluster-versioned receipts; the oracle keeps it on the instance.
    answered = self.__dict__.get("_answered", (None, None))
    if k == 1 and question == answered[0]:
        return [answered[1]]

    q = np.asarray(query, dtype=np.float64).reshape(-1)
    qnorm = float(np.linalg.norm(q))
    if qnorm <= 0 or k <= 0:
        return []
    q = q / qnorm
    nprobe = min(self.nprobe, self.n_clusters)
    centroid_scores = self._centroids @ q
    probe = np.argsort(-centroid_scores)[:nprobe]
    q32 = q.astype(STORAGE_DTYPE)

    blocks = [self._blocks[c] for c in probe if self._blocks[c].keys]
    if not blocks:
        return []

    chunks = [np.einsum("ij,j->i", block.view(), q32) for block in blocks]
    scores = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    if k == 1:
        top = (int(np.argmax(scores)),)
    else:
        top = np.argsort(-scores, kind="stable")[: min(k, scores.shape[0])]
    if len(blocks) == 1:
        keys0 = blocks[0].keys
        hits = [SearchResult(keys0[i], float(scores[i])) for i in top]
    else:
        offsets = np.zeros(len(blocks) + 1, dtype=np.intp)
        offsets[1:] = np.cumsum([len(b.keys) for b in blocks])
        owners = np.searchsorted(offsets, top, side="right") - 1
        hits = [
            SearchResult(blocks[b].keys[int(gi - offsets[b])],
                         float(scores[gi]))
            for b, gi in zip(owners, top)
        ]
    self._answered = (question, hits[0])
    return hits


def install(monkeypatch) -> None:
    """Patch every reference back over its rewritten namesake.

    Modules that imported a helper by name are patched where they hold it.
    ``ICCacheService._learn`` is bound when a service is built, so install
    before building one.
    """
    import repro.core.proxy
    import repro.core.router
    import repro.embedding.embedder
    import repro.embedding.similarity
    import repro.llm.icl
    import repro.llm.model
    import repro.llm.quality
    import repro.pipeline.policies
    from repro.core.manager import ExampleManager
    from repro.core.proxy import HelpfulnessProxy
    from repro.core.router import BanditRouter, _LinearTSArm
    from repro.core.selector import ExampleSelector
    from repro.core.service import ICCacheService
    from repro.llm.icl import ICLBoostModel
    from repro.vectorstore.ivf import IVFIndex

    for module in (repro.embedding.similarity, repro.embedding.embedder,
                   repro.core.proxy, repro.llm.icl):
        monkeypatch.setattr(module, "vector_norm", vector_norm)
    for module in (repro.llm.quality, repro.llm.model):
        monkeypatch.setattr(module, "clip_unit", clip_unit)
    for module in (repro.embedding.similarity, repro.core.proxy,
                   repro.llm.icl):
        monkeypatch.setattr(module, "cosine_similarity", cosine_similarity)
    monkeypatch.setattr(repro.llm.icl, "_smoothstep", _smoothstep)
    monkeypatch.setattr(ICLBoostModel, "boost", boost)
    monkeypatch.setattr(repro.core.proxy, "proxy_features", proxy_features)
    monkeypatch.setattr(repro.core.proxy, "proxy_features_matrix",
                        proxy_features_matrix)
    monkeypatch.setattr(HelpfulnessProxy, "update", proxy_update)
    monkeypatch.setattr(ExampleManager, "record_use", record_use)
    monkeypatch.setattr(ExampleSelector, "select", select)
    monkeypatch.setattr(ExampleSelector, "select_batch", select_batch)
    for module in (repro.core.router, repro.pipeline.policies):
        monkeypatch.setattr(module, "routing_features", routing_features)
    monkeypatch.setattr(BanditRouter, "route", route)
    monkeypatch.setattr(BanditRouter, "_load_bias", _load_bias)
    monkeypatch.setattr(_LinearTSArm, "update", arm_update)
    monkeypatch.setattr(ICCacheService, "_learn", learn)
    monkeypatch.setattr(IVFIndex, "search", ivf_search)
