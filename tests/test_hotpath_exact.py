"""The flattened read path is the old one, bit for bit.

``tests/hotpath_reference.py`` keeps every rewritten function as it was.
The properties here hold the new forms to it with ``==`` on floats,
``tobytes()`` on arrays and equal generator states — tolerances would hide
exactly the last-bit drift that moves a serving decision a thousand
requests later.  The scenario at the end serves a journaled, full cache on
both arithmetics and compares the journal, the index and the snapshot byte
for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import small_sum
from repro.core.cache import ExampleCache
from repro.core.config import (
    ICCacheConfig,
    ManagerConfig,
    RouterConfig,
    SelectorConfig,
)
from repro.core.example import Example
from repro.core.manager import ExampleManager
from repro.core.proxy import HelpfulnessProxy, proxy_features_matrix
from repro.core.router import BanditRouter, RouterArm, routing_features
from repro.core.selector import ExampleSelector, ScoredExample
from repro.core.service import ICCacheService
from repro.core.table import (
    EMBEDDING,
    EMBEDDING_ROW_NORM,
    attached_rows,
    row_norm,
)
from repro.embedding.similarity import (
    cosine_from_norms,
    cosine_similarity,
    vector_norm,
)
from repro.llm.icl import ExampleView, ICLBoostModel
from repro.llm.quality import clip_unit
from repro.persistence import Checkpointer, WriteAheadLog
from repro.persistence.snapshot import _encode
from repro.utils.rng import make_rng
from repro.vectorstore.ivf import IVFIndex
from repro.workload import SyntheticDataset
from tests import hotpath_reference as reference
from tests.conftest import make_request
from tests.strategies import DETERMINISM, seeds, vector_pools

DIM = 16

#: Scalars with teeth: signed zeros, denormals, the clip bounds and their
#: neighbours, huge and tiny magnitudes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
               -1.0, 1.0 - 2**-53, 1.0 + 2**-52, 1e-12, 1e-160, 1e150]


def _same_float(a: float, b: float) -> bool:
    """``==`` that also tells ``0.0`` from ``-0.0`` and matches NaN to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def vectors(draw, dim: int | None = None) -> np.ndarray:
    """A float64 vector: gaussian at a drawn scale, then a few components
    overwritten with edge values (all-zero and all-denormal included)."""
    rng = np.random.default_rng(draw(seeds()))
    n = dim if dim is not None else draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["gauss", "tiny", "zero", "negzero", "unit"]))
    if kind == "zero":
        v = np.zeros(n)
    elif kind == "negzero":
        v = -np.zeros(n)
    elif kind == "tiny":
        v = rng.normal(size=n) * 5e-324 * rng.integers(1, 50)
    else:
        v = rng.normal(size=n) * 10.0 ** draw(st.integers(-150, 150))
        if kind == "unit":
            norm = np.linalg.norm(v)
            v = v / norm if norm > 0 else v
    for slot in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        v[slot] = draw(st.sampled_from(EDGE_FLOATS))
    return v


# -- group 1: scalar arithmetic ---------------------------------------------

@settings(**DETERMINISM)
@given(v=vectors())
def test_vector_norm_is_numpys_one_d_norm(v):
    with np.errstate(over="ignore"):
        assert _same_float(vector_norm(v), reference.vector_norm(v))


@settings(**DETERMINISM)
@given(x=st.one_of(st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf,
                                                   math.nan]),
                   st.floats(allow_nan=False)))
def test_clip_unit_is_np_clip(x):
    assert _same_float(clip_unit(x), reference.clip_unit(x))


@settings(**DETERMINISM)
@given(a=vectors(dim=DIM), b=vectors(dim=DIM), rescaled=st.booleans())
@example(a=np.zeros(DIM), b=np.ones(DIM), rescaled=False)
@example(a=np.full(DIM, 5e-324), b=np.full(DIM, 5e-324), rescaled=True)
@example(a=-np.zeros(DIM), b=-np.zeros(DIM), rescaled=False)
def test_cosine_similarity_equals_reference(a, b, rescaled):
    with np.errstate(all="ignore"):
        want = reference.cosine_similarity(a, b, rescaled)
        got = cosine_similarity(a, b, rescaled)
        assert _same_float(got, want)
        if not rescaled:    # the hoisted-norm form every hot caller uses
            assert _same_float(
                cosine_from_norms(a, b, vector_norm(a) * vector_norm(b)), want)


@settings(**DETERMINISM)
@given(values=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(-1e6, 1e6)), max_size=12))
def test_small_sum_is_numpys_reduce(values):
    """Below 8 items a left-to-right loop, numpy's own pairwise blocks from
    there — the same double as ``np.add.reduce`` either way."""
    want = float(np.add.reduce(np.array(values, dtype=float)))
    assert _same_float(small_sum(values), want)
    if values:
        assert _same_float(small_sum(values) / len(values),
                           float(np.mean(values)))


def test_uniform_is_random_and_consumes_the_same_words():
    ours, theirs = make_rng(91), make_rng(91)
    assert [ours.random() for _ in range(100_000)] == \
        [theirs.uniform() for _ in range(100_000)]
    assert ours.bit_generator.state == theirs.bit_generator.state


# -- the router -------------------------------------------------------------

def _scored(rng, n: int) -> list[ScoredExample]:
    return [ScoredExample(example=None, relevance=float(r), utility=float(u))
            for r, u in zip(rng.uniform(-1, 1, n), rng.normal(0.1, 0.3, n))]


@settings(**DETERMINISM)
@given(seed=seeds(), n=st.integers(0, 9),
       edge=st.none() | st.sampled_from(EDGE_FLOATS))
def test_routing_features_equal_reference(seed, n, edge):
    """0..5 utilities is what the selector can return; up to 9 crosses the
    8-item boundary where numpy's reduce stops being a plain loop."""
    rng = np.random.default_rng(seed)
    examples = _scored(rng, n)
    if examples and edge is not None:
        examples[0].utility = edge
    request = make_request(f"r-{seed}", difficulty=float(rng.random()))
    assert routing_features(request, examples).tobytes() == \
        reference.routing_features(request, examples).tobytes()


def _router(n_arms: int, seed: int, gate: float = 0.08) -> BanditRouter:
    arms = [RouterArm(f"m{i}", cost=i / max(1, n_arms - 1))
            for i in range(n_arms)]
    return BanditRouter(arms, RouterConfig(uncertainty_std_gate=gate),
                        seed=seed)


@settings(**DETERMINISM)
@given(seed=seeds(), n_arms=st.integers(2, 9),
       spread=st.sampled_from([0.0, 1e-9, 0.01, 0.1, 1.0, 30.0]))
def test_feedback_decision_equals_reference(seed, n_arms, spread):
    rng = np.random.default_rng(seed)
    router = _router(n_arms, seed)
    names = [arm.model_name for arm in router.arms]
    means = dict(zip(names, (0.5 + spread * rng.normal(size=n_arms)).tolist()))
    sampled = rng.normal(size=n_arms).tolist()
    if rng.random() < 0.3:
        sampled[1] = sampled[0]            # a tie: the first arm must win
    for chosen in names:
        assert router._feedback_decision(chosen, means, sampled) == \
            reference.feedback_decision(router, chosen, means,
                                        dict(zip(names, sampled)))


def test_one_arm_pair_exactly_at_the_gate():
    """The gate is ``std >= gate``: a pair whose std *is* the gate must not
    solicit, and one ulp below it must, on both arithmetics."""
    means = {"m0": 0.4, "m1": 0.55}
    scores = np.array(list(means.values())) / RouterConfig().uncertainty_temp
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    std = float(probs.std())
    for gate, solicits in ((std, False), (math.nextafter(std, 1.0), True)):
        router = _router(2, seed=0, gate=gate)
        got = router._feedback_decision("m0", means, [0.1, 0.2])
        assert got == reference.feedback_decision(
            router, "m0", means, {"m0": 0.1, "m1": 0.2})
        assert got == ((True, "m1") if solicits else (False, None))


@settings(**DETERMINISM)
@given(seed=seeds(), loads=st.lists(
    st.none() | st.sampled_from([0.0, 0.5, 0.7, 0.7000001, 1.5, 40.0]),
    min_size=1, max_size=12))
def test_route_equals_reference_and_leaves_the_generator_there(seed, loads):
    """Whole decisions, unloaded and loaded (the tanh short cut), with
    updates in between so posteriors move: same choice, same scores, same
    generator state after every call."""
    ours, theirs = _router(2, seed), _router(2, seed)
    rng = np.random.default_rng(seed)
    for step, load in enumerate(loads):
        examples = _scored(rng, int(rng.integers(0, 6)))
        request = make_request(f"r-{seed}-{step}",
                               difficulty=float(rng.random()))
        got = ours.route(request, examples, load)
        want = reference.route(theirs, request, examples, load)
        assert (got.model_name, got.solicit_feedback, got.challenger) == \
            (want.model_name, want.solicit_feedback, want.challenger)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.mean_scores == want.mean_scores
        assert got.biased_scores == want.biased_scores
        assert ours._rng.bit_generator.state == \
            theirs._rng.bit_generator.state
        reward = float(rng.random())
        ours.update(got.model_name, got.features, reward)
        theirs.update(want.model_name, want.features, reward)


# -- the simulated model ----------------------------------------------------

@settings(**DETERMINISM)
@given(seed=seeds(), n=st.integers(0, 7), base=st.floats(0.0, 1.0),
       dtype=st.sampled_from([np.float64, np.float32]),
       twist=st.sampled_from(["none", "zero-latent", "zero-request",
                              "duplicates", "all-distracting"]))
def test_boost_equals_reference(seed, n, base, dtype, twist):
    rng = np.random.default_rng(seed)
    request_latent = rng.normal(size=DIM)
    if twist == "zero-request":
        request_latent = np.zeros(DIM)
    views = []
    for i in range(n):
        closeness = rng.choice([0.0, 0.3, 0.9, 1.0])
        latent = closeness * request_latent + (1 - closeness) * \
            rng.normal(size=DIM)
        if twist == "zero-latent" and i == 0:
            latent = np.zeros(DIM)
        if twist == "duplicates" and i:
            latent = views[0].latent.copy()
        if twist == "all-distracting":
            latent = -request_latent
        views.append(ExampleView(np.asarray(latent, dtype=dtype),
                                 float(rng.random()), int(rng.integers(5, 90))))
    model = ICLBoostModel()
    assert _same_float(model.boost(request_latent, views, base),
                       reference.boost(model, request_latent, views, base))


# -- the table: embeddings, norms, record_use --------------------------------

def _example(example_id: str, embedding: np.ndarray, tokens: int = 20,
             quality: float = 0.7) -> Example:
    request = make_request(f"req-{example_id}", text="q " * tokens)
    return Example(example_id=example_id, request=request,
                   response_text="r " * tokens, embedding=embedding,
                   quality=quality, source_model="gemma-2-27b",
                   source_cost=0.6)


def _pool(rng, n: int, duplicates: int = 0) -> list[np.ndarray]:
    centers = rng.normal(size=(3, DIM))
    rows = [centers[i % 3] + 0.3 * rng.normal(size=DIM) for i in range(n)]
    rows = [row / np.linalg.norm(row) for row in rows]
    for i in range(min(duplicates, n - 1)):
        rows[n - 1 - i] = rows[i].copy()
    return rows


@settings(**DETERMINISM)
@given(v=vectors(dim=DIM), seed=seeds(), n_others=st.integers(0, 25))
def test_row_norm_is_the_axis_one_norm_whatever_the_neighbours(v, seed,
                                                               n_others):
    others = np.random.default_rng(seed).normal(size=(n_others, DIM))
    with np.errstate(over="ignore", under="ignore"):
        for at in sorted({0, n_others // 2, n_others}):
            matrix = np.insert(others, at, v, axis=0)
            assert _same_float(
                row_norm(v), float(np.linalg.norm(matrix, axis=1)[at]))


@settings(**DETERMINISM)
@given(seed=seeds(), n=st.integers(1, 24), duplicates=st.integers(0, 4),
       layout=st.sampled_from(["attached", "detached", "mixed", "two-tables"]),
       churn=st.booleans())
def test_feature_matrix_and_scores_equal_reference(seed, n, duplicates,
                                                   layout, churn):
    """Gathered rows and stored norms against ``np.stack`` and a fresh
    ``norm(axis=1)``: attached lists (after swap-deletes and growth when
    ``churn``), and the detached, mixed and two-table lists that must take
    the per-object fallback (a standalone example is a one-row table of
    its own, so only a list of one of them is "one table")."""
    rng = np.random.default_rng(seed)
    examples = [_example(f"ex-{i}", row, tokens=int(rng.integers(5, 700)))
                for i, row in enumerate(_pool(rng, n, duplicates))]
    cache, other = ExampleCache(dim=DIM), ExampleCache(dim=DIM)
    for i, ex in enumerate(examples):
        if layout == "attached" or (layout == "mixed" and i % 2 == 0):
            cache.add(ex)
        elif layout == "two-tables":
            (cache if i % 2 == 0 else other).add(ex)
    if churn:   # fillers come and go: rows move, the matrix reallocates
        for i in range(40):
            cache.add(_example(f"filler-{i}", rng.normal(size=DIM)))
        for i in rng.permutation(40).tolist():
            cache.remove(f"filler-{i}")
    manager = ExampleManager(cache, ManagerConfig(sanitize=False))
    for ex in examples[::3]:
        if ex.__dict__["_table"] is cache.table:
            manager.record_use(ex, float(rng.random()), 0.5, True)
            ex.replay_count = int(rng.integers(0, 9))

    query = rng.normal(size=DIM)
    order = rng.permutation(n).tolist()
    listed = [examples[i] for i in order]
    tables = {id(ex.__dict__["_table"]) for ex in listed}
    expect_fast = len(tables) == 1              # every one in one table
    assert (attached_rows(listed) is not None) == expect_fast
    assert expect_fast or layout != "attached"
    want = reference.proxy_features_matrix(query, listed)
    assert proxy_features_matrix(query, listed).tobytes() == want.tobytes()
    assert proxy_features_matrix(
        query, listed, attached_rows(listed)).tobytes() == want.tobytes()

    proxy = HelpfulnessProxy()
    for ex in examples[:5]:
        proxy.update(query, ex, float(rng.normal()))
    assert proxy.score_batch(query, listed).tobytes() == \
        (want @ proxy.weights).tobytes()
    if duplicates and n >= 2:            # equal rows score equal, anywhere
        scores = dict(zip(order, proxy_features_matrix(query, listed)[:, 1]))
        assert scores[0] == scores[n - 1]


def test_embedding_is_a_view_that_follows_its_row():
    """Reads after a swap-delete moved the row, and after growth reallocated
    the matrix, return the example's own vector; a view taken before growth
    keeps the values it had; an evicted example takes its vector with it."""
    rng = np.random.default_rng(5)
    rows = _pool(rng, 10)
    cache = ExampleCache(dim=DIM)
    examples = [_example(f"ex-{i}", row) for i, row in enumerate(rows)]
    for ex in examples[:8]:
        cache.add(ex)
    table = cache.table
    last = examples[7]
    assert np.shares_memory(last.embedding, table.col(EMBEDDING))  # a view
    assert last.embedding.tobytes() == rows[7].tobytes()

    cache.remove("ex-2")                        # ex-7 moves into row 2
    assert last.__dict__["_row"] == 2
    assert last.embedding.tobytes() == rows[7].tobytes()
    assert examples[2].__dict__["_table"] is not table
    assert examples[2].embedding.tobytes() == rows[2].tobytes()
    assert not np.shares_memory(                # its own one-row table now
        examples[2].embedding, table.col(EMBEDDING).base)

    held = examples[0].embedding
    matrix_before = table.col(EMBEDDING).base
    cache.add(examples[8])
    cache.add(examples[9])                      # ninth row: capacity 8 -> 16
    assert table.col(EMBEDDING).base is not matrix_before
    assert held.tobytes() == rows[0].tobytes()
    for i in (0, 1, 3, 4, 5, 6, 7, 8, 9):
        assert examples[i].embedding.tobytes() == rows[i].tobytes()
        row = examples[i].__dict__["_row"]
        assert table.col(EMBEDDING_ROW_NORM)[row] == row_norm(rows[i])
        assert examples[i].embedding_norm == float(np.linalg.norm(rows[i]))

    with pytest.raises(ValueError):             # one dim per table
        table.attach(_example("wide", np.ones(DIM + 1)))
    with pytest.raises(ValueError):
        table.attach(_example("square", np.ones((4, 4))))
    assert len(table) == 9


@settings(**DETERMINISM)
@given(seed=seeds(), uses=st.lists(st.tuples(
    st.integers(0, 2), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.booleans()), min_size=1, max_size=30))
def test_record_use_equals_three_ema_round_trips(seed, uses):
    """One table write per use against the per-object path, first-ever
    update included, on attached and on detached examples."""
    rng = np.random.default_rng(seed)
    rows = _pool(rng, 3)
    caches = [ExampleCache(dim=DIM), ExampleCache(dim=DIM)]
    pools = [[_example(f"ex-{i}", row) for i, row in enumerate(rows)]
             for _ in caches]
    for cache, pool in zip(caches, pools):
        for ex in pool[:2]:         # ex-2 stays detached: the object path
            cache.add(ex)
    ours, theirs = (ExampleManager(cache, ManagerConfig(sanitize=False))
                    for cache in caches)
    for which, quality, cost, offloaded in uses:
        ours.record_use(pools[0][which], quality, cost, offloaded)
        reference.record_use(theirs, pools[1][which], quality, cost,
                             offloaded)
    for mine, other in zip(*pools):
        for stream in ("gain_ema", "feedback_quality", "offload_gain"):
            a, b = getattr(mine, stream), getattr(other, stream)
            assert (a._value, a.count, a.alpha) == (b._value, b.count,
                                                    b.alpha), stream


# -- the proxy's lazy solve --------------------------------------------------

@settings(**DETERMINISM)
@given(seed=seeds(), script=st.lists(st.sampled_from(
    ["update", "update", "score", "predict", "weights"]),
    min_size=1, max_size=25))
def test_lazy_solve_reads_what_an_eager_solve_left(seed, script):
    rng = np.random.default_rng(seed)
    cache = ExampleCache(dim=DIM)
    examples = [_example(f"ex-{i}", row)
                for i, row in enumerate(_pool(rng, 6))]
    for ex in examples:
        cache.add(ex)
    lazy, eager = HelpfulnessProxy(), HelpfulnessProxy()
    for step in script:
        query = rng.normal(size=DIM)
        ex = examples[int(rng.integers(0, 6))]
        if step == "update":
            observed = float(rng.normal())
            with mock.patch.object(np.linalg, "solve") as solve:
                lazy.update(query, ex, observed)
            assert not solve.called, "update() must only accumulate"
            reference.proxy_update(eager, query, ex, observed)
        elif step == "score":
            assert lazy.score_batch(query, examples).tobytes() == \
                eager.score_batch(query, examples).tobytes()
        elif step == "predict":
            assert lazy.predict(query, ex) == eager.predict(query, ex)
        else:
            assert lazy.weights.tobytes() == eager.weights.tobytes()
    assert lazy.weights.tobytes() == eager.weights.tobytes()
    assert lazy.updates == eager.updates


# -- search hits and the selector -------------------------------------------

@settings(**DETERMINISM)
@given(pool=vector_pools(min_duplicates=2), nprobe=st.sampled_from([1, 2, 5]),
       k=st.sampled_from([1, 2, 7, 20, 400]))
def test_hit_materialisation_equals_reference(pool, nprobe, k):
    """Same keys, same Python-float scores, same order — one probed block,
    several, k past the probed rows, and the k=1 argmax path; then the
    dedupe-probe short cut answers from the same hit."""
    indexes = []
    for _ in range(2):
        index = IVFIndex(dim=pool.dim, nprobe=nprobe, seed=3)
        for key, vec in enumerate(pool.vectors):
            index.add(key, vec)
        indexes.append(index)
    ours, theirs = indexes
    for query in pool.queries(6):
        got = ours.search(query, k)
        want = reference.ivf_search(theirs, query, k)
        assert got == want
        assert all(type(hit.score) is float for hit in got)
        assert ours.search(query, 1) == reference.ivf_search(theirs, query, 1)


def _twin_selectors(seed: int, n: int, config: SelectorConfig):
    rng = np.random.default_rng(seed)
    rows = _pool(rng, n, duplicates=3)
    sizes = rng.integers(5, 400, size=n).tolist()
    twins = []
    for _ in range(2):
        cache = ExampleCache(dim=DIM)
        for i, row in enumerate(rows):
            cache.add(_example(f"ex-{i}", row, tokens=sizes[i],
                               quality=0.4 + 0.05 * (i % 9)))
        proxy = HelpfulnessProxy()
        train = np.random.default_rng(seed + 1)
        for _ in range(40):
            ex = cache.get(f"ex-{train.integers(0, n)}")
            query = rows[int(train.integers(0, n))]
            proxy.update(query, ex, 0.4 * float(query @ ex.embedding)
                         + float(train.normal(0, 0.02)))
        twins.append(ExampleSelector(cache, proxy, config))
    return twins, rows


@settings(**DETERMINISM)
@given(seed=seeds(), n=st.integers(8, 90),
       budget=st.sampled_from([60, 400, 2048]),
       diversity=st.sampled_from([0.0, 0.5, 5.0]))
def test_select_and_select_batch_equal_reference(seed, n, budget, diversity):
    """Chosen ids, relevance, utility and order; access counts; the rolling
    threshold sample and the threshold it adapts to."""
    config = SelectorConfig(pre_k=12, max_examples=4, adapt_every=5,
                            context_budget_tokens=budget,
                            diversity_weight=diversity,
                            utility_threshold=0.0)
    (ours, theirs), rows = _twin_selectors(seed, n, config)
    rng = np.random.default_rng(seed + 2)

    def flat(chosen):
        return [(s.example.example_id, s.relevance, s.utility) for s in chosen]

    for _ in range(12):
        query = rows[int(rng.integers(0, n))] + 0.05 * rng.normal(size=DIM)
        assert flat(ours.select(query)) == \
            flat(reference.select(theirs, query))
    batch = np.stack([rows[int(i)] for i in rng.integers(0, n, size=5)])
    assert [flat(c) for c in ours.select_batch(batch)] == \
        [flat(c) for c in reference.select_batch(theirs, batch)]
    assert ours._recent_scored == theirs._recent_scored
    assert ours.utility_threshold == theirs.utility_threshold
    assert [ex.access_count for ex in ours.cache] == \
        [ex.access_count for ex in theirs.cache]


def test_selector_falls_back_on_detached_candidates():
    """Offline tools score lists that never saw a cache: the per-object path
    must choose what the reference chooses and count the accesses."""
    rng = np.random.default_rng(8)
    pools = [[_example(f"ex-{i}", row, tokens=30 + i) for i, row in
              enumerate(_pool(np.random.default_rng(8), 10, duplicates=2))]
             for _ in range(2)]
    query = rng.normal(size=DIM)
    picks = []
    for pool, stage2 in zip(pools, (ExampleSelector._choose,
                                    reference._stage2)):
        selector = ExampleSelector(ExampleCache(dim=DIM), HelpfulnessProxy(),
                                   SelectorConfig(utility_threshold=-1.0))
        candidates = [(ex, float(query @ ex.embedding)) for ex in pool]
        chosen = stage2(selector, query, candidates)
        if stage2 is reference._stage2:
            chosen = reference._combine(selector, chosen)
        picks.append([(s.example.example_id, s.utility) for s in chosen])
    assert picks[0] == picks[1] and picks[0]
    assert [ex.access_count for ex in pools[0]] == \
        [ex.access_count for ex in pools[1]]
    assert sum(ex.access_count for ex in pools[0]) == len(picks[0])


# -- a journaled serving run on both arithmetics -----------------------------

SEED = 11
BANK = 120


def _at_capacity_run(directory) -> dict[str, object]:
    """300 ``serve`` + 10 ``serve_batch`` on a full, journaled cache with
    three maintenance ticks; returns every byte the run left behind."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=True)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    requests = dataset.online_requests(380)
    outcomes = []
    for done, request in enumerate(requests[:300]):
        if done and done % 100 == 0:
            service.clock.advance(1800.0)
            service.run_maintenance(replay=True)
        outcomes.append(service.serve(
            request, load=None if done % 3 else 0.9))
    for start in range(300, 380, 8):
        outcomes += service.serve_batch(requests[start:start + 8], load=0.2)
    checkpointer.detach()
    snapshot = directory / "final.json"
    service.save(snapshot)
    files = {path.name.split(".")[-1]: hashlib.sha256(
        path.read_bytes()).hexdigest()
        for path in directory.glob("final.json*")}
    return {
        "decisions": [(o.result.model_name, o.result.quality,
                       [s.example.example_id for s in o.examples])
                      for o in outcomes],
        "wal": checkpointer.wal_path.read_bytes(),
        "index": json.dumps(_encode(service.cache._index.to_state())),
        "snapshot": files,
        "stats": service.stats,
        "evictions": service.manager.evictions,
    }


def test_journal_index_and_snapshot_identical_on_the_old_arithmetic(
        tmp_path, monkeypatch):
    new = _at_capacity_run(tmp_path / "new")
    assert new["evictions"] >= 150 and new["stats"].proxy_updates >= 100
    assert set(new["snapshot"]) == {"json", "bin"}
    kinds = {record["kind"] for record in WriteAheadLog.read(
        tmp_path / "new" / Checkpointer.WAL_NAME)}
    assert {"replay_rewrite", "remove"} <= kinds

    reference.install(monkeypatch)
    old = _at_capacity_run(tmp_path / "old")
    for key in new:
        assert old[key] == new[key], key
