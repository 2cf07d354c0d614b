"""Stage 1's one kernel (``vectorstore.flat.ranked`` and its ``finish``)
against its oracle.

Every search entry point — :meth:`IVFIndex.search`, :meth:`IVFIndex.search_batch`,
:meth:`FlatIndex.search_batch` — scores through one routine: an einsum per
(query, probed block), one stable descending argsort per query, keys and
``SearchResult``s for the winners only.  These tests hold it to the per-key
loop (``tests/search_reference.py``: every row scored on its own, a stable
sort) **bit for bit** — keys, Python-float scores, order — on pools with
exact duplicates, where the order among ties is decided by nothing but the
stable tie-break; they hold a query in a batch to the same query alone, and
they pin the one rule for a query without a direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectorstore import FlatIndex, IVFIndex, ivf
from repro.vectorstore.flat import _EPS

from tests.clustered_pool import clustered_vectors
from tests.search_reference import reference_search, reference_search_batch


def _lone(index, query: np.ndarray, k: int):
    """One query through an index's lone entry point: ``search``, or a
    flat store's batch of one."""
    if isinstance(index, FlatIndex):
        return index.search_batch(query[None], k)[0]
    return index.search(query, k)

DIM = 16
TOPICS = 10
N = 500
#: 1, a small k, the service's own ``pre_k``, and one past every probed block.
KS = (1, 5, 20, 400)


def _pool(seed: int, n: int = N) -> np.ndarray:
    """A topic-clustered pool in which a fifth of the rows are bit-exact
    copies of other rows (exact score ties for any query)."""
    vectors = clustered_vectors(n, DIM, TOPICS, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    copies = max(2, n // 5)
    vectors[rng.integers(0, n, size=copies)] = \
        vectors[rng.integers(0, n, size=copies)]
    return vectors


def _queries(vectors: np.ndarray, seed: int) -> np.ndarray:
    """24 rows: stored vectors (duplicates tie at the top), a run of
    neighbours of one stored vector (several queries probing one cluster),
    fresh directions, two zero rows and one row below ``_EPS``."""
    rng = np.random.default_rng(seed + 2000)
    stored = vectors[rng.integers(0, len(vectors), size=8)]
    crowd = vectors[3] + rng.normal(0.0, 0.02, size=(6, DIM))
    fresh = rng.normal(size=(7, DIM))
    batch = np.concatenate([stored, crowd, fresh, np.zeros((2, DIM)),
                            vectors[:1] * 1e-13])
    return batch[rng.permutation(len(batch))]


def _filled(index, vectors: np.ndarray):
    for key, vector in enumerate(vectors):
        index.add(key, vector)
    return index


def _indexes(seed: int) -> dict[str, object]:
    vectors = _pool(seed)
    built = {
        f"ivf-nprobe{nprobe}": _filled(
            IVFIndex(dim=DIM, nprobe=nprobe, seed=seed), vectors)
        for nprobe in (1, 2, 4)
    }
    for index in built.values():
        assert index.retrain()
        # Appends after training land at the end of their blocks: the tie
        # order then differs from flat row order, as it does under churn.
        for key in range(12):
            index.add(f"late-{key}", vectors[key % 4])
    # Removals swap-delete inside their blocks and empty one block outright:
    # the tail then meets rows out of add order and a probe with no rows.
    removed = _filled(IVFIndex(dim=DIM, nprobe=4, seed=seed), vectors)
    assert removed.retrain()
    emptied = list(removed._blocks[0].keys)
    for key in [*emptied, *(key for key in range(0, N, 10)
                            if key not in emptied)]:
        removed.remove(key)
    assert not removed._blocks[0].keys and removed.is_trained
    built["ivf-removed"] = removed
    built["ivf-untrained"] = _filled(IVFIndex(dim=DIM, seed=seed),
                                     _pool(seed, n=48))
    built["flat"] = _filled(FlatIndex(DIM), vectors)
    return built


KINDS = ["ivf-nprobe1", "ivf-nprobe2", "ivf-nprobe4", "ivf-removed",
         "ivf-untrained", "flat"]


@pytest.fixture(scope="module", params=range(3))
def seeded(request):
    seed = request.param
    return _indexes(seed), _queries(_pool(seed), seed)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("kind", KINDS)
def test_search_batch_equals_the_per_candidate_tail(seeded, kind, k):
    indexes, queries = seeded
    index = indexes[kind]
    trainings = getattr(index, "trainings", 0)
    want = reference_search_batch(index, queries, k)
    got = index.search_batch(queries, k)
    assert getattr(index, "trainings", 0) == trainings
    assert got == want          # keys, float scores and order, exactly
    assert all(type(hit.score) is float for hits in got for hit in hits)
    norms = np.linalg.norm(queries, axis=1)
    assert [bool(hits) for hits in got] == (norms >= _EPS).tolist()
    if k > 1:
        assert any(len({hit.score for hit in hits}) < len(hits)
                   for hits in got), "no exact tie exercised"


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("seed", range(3))
def test_single_search_equals_the_per_candidate_tail(seed, k):
    """A lone query scores as the per-key oracle does (ties in row order),
    on a trained index, an untrained one and a flat store, and exactly as
    the same query inside a batch; a query below ``_EPS`` has no hits.  The
    indexes are fresh, so no receipt a batch filed answers a ``k == 1``
    probe here."""
    indexes, queries = _indexes(seed), _queries(_pool(seed), seed)
    for kind in KINDS:
        index = indexes[kind]
        alone = [_lone(index, query, k) for query in queries]
        assert alone == reference_search_batch(index, queries, k), kind
        assert alone == index.search_batch(queries, k), kind


def test_several_queries_share_a_probed_cluster(seeded):
    """The batch the oracle is compared on really has several rows probing
    one cluster, so a row cannot take another row's scores unseen."""
    indexes, queries = seeded
    index = indexes["ivf-nprobe2"]
    index.search_batch(queries, 5)
    probed = [cluster for _, clusters, _ in index._receipts.values()
              for cluster, _ in clusters]
    assert len(set(probed)) < len(probed)


# -- one rule for a query without a direction --------------------------------

def _entry_points():
    vectors = _pool(7, n=200)
    flat = _filled(FlatIndex(DIM), vectors)
    trained = _filled(IVFIndex(dim=DIM, seed=7), vectors)
    assert trained.retrain()
    return {
        "FlatIndex.search_batch": lambda q: flat.search_batch(q[None], 5)[0],
        "IVFIndex.search": lambda q: trained.search(q, 5),
        "IVFIndex.search_batch":
            lambda q: trained.search_batch(q[None], 5)[0],
    }, vectors


ENTRIES = ["FlatIndex.search_batch", "IVFIndex.search",
           "IVFIndex.search_batch"]


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_norm_below_eps_has_no_hits(entry):
    entries, vectors = _entry_points()
    search = entries[entry]
    direction = vectors[5]
    assert search(np.zeros(DIM)) == []
    assert search(direction * (_EPS / 10)) == []
    tiny = search(direction * (_EPS * 10))
    assert len(tiny) == 5 and tiny[0].score == pytest.approx(1.0, abs=1e-6)
    assert [hit.key for hit in tiny] == \
        [hit.key for hit in search(direction)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_non_finite_norm_has_no_hits_and_raises_no_warning(entry):
    """The test ``unit_row`` refuses a stored vector by: a query whose norm
    is infinite or NaN has no direction, so it has no hits, alone or beside
    a searchable row, and no arithmetic on it warns."""
    entries, vectors = _entry_points()
    search = entries[entry]
    inf, nan = np.full(DIM, np.inf), vectors[5].copy()
    nan[3] = np.nan
    for query in (inf, -inf, nan):
        assert search(query) == []
    flat, index = FlatIndex(DIM), IVFIndex(dim=DIM, seed=7)
    _filled(flat, vectors), _filled(index, vectors)
    for batched in (flat, index):
        hits = batched.search_batch(np.stack([inf, vectors[5], nan]), 5)
        assert hits[0] == hits[2] == [] and len(hits[1]) == 5


def test_a_tiny_query_behaves_the_same_either_side_of_min_train_size():
    assert ivf.MIN_TRAIN_SIZE == 64
    vectors = _pool(9, n=64)
    tiny = vectors[2] * 1e-13
    for n in (63, 64):
        index = _filled(IVFIndex(dim=DIM, seed=9),
                        vectors[:n])
        assert index.search(vectors[2], 3)
        assert index.is_trained == (n == 64)
        assert index.search(tiny, 3) == []
        assert index.search(tiny, 1) == []
        assert index.search_batch(np.stack([tiny, vectors[2]]), 3)[0] == []


def _tied_pool(seed: int, dim: int, low: int, high: int):
    """``low``–``high`` random rows, four of them bit-identical, and a query
    a hair off those four: they are its four best rows, tied exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(low, high))
    vectors = rng.normal(size=(n, dim))
    best = np.sort(rng.choice(n, size=4, replace=False))
    vectors[best] = vectors[best[0]]
    query = vectors[best[0]] + rng.normal(0.0, 1e-3, size=dim)
    others = rng.normal(size=(15, dim))
    slot = int(rng.integers(0, 16))
    batch = np.concatenate([others[:slot], query[None], others[slot:]])
    return vectors, best.tolist(), query, batch, slot


@pytest.mark.parametrize("dim", [16, 17])
@pytest.mark.parametrize("trained", [False, True], ids=["untrained",
                                                         "trained"])
def test_identical_best_rows_tie_in_row_order_alone_and_in_a_batch(
        dim, trained):
    """Four bit-identical best rows come back in row order with equal
    scores — the block's first two at ``k == 2``, all four at ``k == 4`` —
    from a lone query and from the same query inside a batch of 16, which
    must agree exactly.  Untrained: 200 pools of 8–62 rows, searched as an
    IVF index and as the flat store.  Trained: 60 pools of 200–600 rows at
    ``nprobe`` 2, where the four share one block in key order.  BLAS kernels
    scored such rows by their position, and ``argpartition`` then picked
    among them."""
    pools = 60 if trained else 200
    low, high = (200, 600) if trained else (8, ivf.MIN_TRAIN_SIZE - 1)
    for seed in range(pools):
        vectors, best, query, batch, slot = _tied_pool(seed, dim, low, high)
        indexes = [_filled(IVFIndex(dim=dim, nprobe=2, seed=seed), vectors)]
        if trained:
            assert indexes[0].retrain()
        else:
            indexes.append(_filled(FlatIndex(dim), vectors))
        for index in indexes:
            for k in (2, 4):
                alone = _lone(index, query, k)
                assert [hit.key for hit in alone] == best[:k], (seed, k)
                assert len({hit.score for hit in alone}) == 1, (seed, k)
                assert index.search_batch(batch, k)[slot] == alone, (seed, k)
