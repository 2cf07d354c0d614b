"""The shared stage-1 tail (``vectorstore.flat.finish``) against its oracle.

Every search entry point — :meth:`IVFIndex.search`, :meth:`IVFIndex.search_batch`,
:meth:`FlatIndex.search` / :meth:`FlatIndex.search_batch` — ends in one routine: candidate score chunks
in, one stable descending argsort, keys and ``SearchResult``s for the winners
only.  These tests hold it to the tail it replaced
(``tests/search_reference.py::reference_search_batch``: one ``SearchResult``
per candidate, a Python ``sort(reverse=True)`` per query) **bit for bit** —
keys, Python-float scores, order — on pools with exact duplicates, where the
order among ties is decided by nothing but the stable tie-break, and they pin
the one rule for a query without a direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectorstore import FlatIndex, IVFIndex, ivf
from repro.vectorstore.flat import _EPS

from tests.clustered_pool import clustered_vectors
from tests.search_reference import reference_search, reference_search_batch

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
    """The one-query entry point ends in the same tail, bit for bit: a
    trained index, an untrained one and a flat index all answer as the
    per-key oracle does (ties in row order), and a query below ``_EPS`` has
    no hits.  The indexes are fresh, so no receipt a batch filed answers a
    ``k == 1`` probe here."""
    indexes, queries = _indexes(seed), _queries(_pool(seed), seed)
    for kind in KINDS:
        index = indexes[kind]
        for query in queries:
            want = [] if np.linalg.norm(query) < _EPS \
                else reference_search(index, query, k)
            assert index.search(query, k) == want, kind


def test_several_queries_share_a_probed_cluster(seeded):
    """The batch the oracle is compared on really has the shape the sgemm
    kernel amortises: some cluster is scored for more than one row."""
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
        "FlatIndex.search": lambda q: flat.search(q, 5),
        "FlatIndex.search_batch": lambda q: flat.search_batch(q[None], 5)[0],
        "IVFIndex.search": lambda q: trained.search(q, 5),
        "IVFIndex.search_batch":
            lambda q: trained.search_batch(q[None], 5)[0],
    }, vectors


@pytest.mark.parametrize("entry", ["FlatIndex.search",
                                   "FlatIndex.search_batch",
                                   "IVFIndex.search",
                                   "IVFIndex.search_batch"])
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


def test_identical_best_rows_tie_in_row_order_below_min_train_size():
    """In 200 pools of 8–62 rows with four bit-identical best rows, a
    single-query search of an untrained index, or of the flat store itself,
    returns the lowest two of the four, in row order, with equal scores.
    BLAS gemv scored such rows by their position, and ``argpartition`` then
    picked among them."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, ivf.MIN_TRAIN_SIZE - 1))
        vectors = rng.normal(size=(n, DIM))
        best = np.sort(rng.choice(n, size=4, replace=False))
        vectors[best] = vectors[best[0]]
        query = vectors[best[0]] + rng.normal(0.0, 1e-3, size=DIM)
        for index in (_filled(IVFIndex(dim=DIM, seed=seed), vectors),
                      _filled(FlatIndex(DIM), vectors)):
            hits = index.search(query, 2)
            assert [hit.key for hit in hits] == best[:2].tolist(), seed
            assert hits[0].score == hits[1].score, seed
