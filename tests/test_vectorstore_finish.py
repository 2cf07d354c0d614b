"""The shared stage-1 tail (``vectorstore.flat.finish``) against its oracle.

Every search entry point — :meth:`IVFIndex.search`, :meth:`IVFIndex.search_batch`,
both :class:`ShardedIndex` merges, :meth:`FlatIndex.search` /
:meth:`FlatIndex.search_batch` — ends in one routine: candidate score chunks
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

from repro.vectorstore import FlatIndex, IVFIndex, ShardedIndex
from repro.vectorstore.flat import _EPS

from tests.clustered_pool import clustered_vectors
from tests.search_reference import reference_search_batch

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
    built["ivf-untrained"] = _filled(IVFIndex(dim=DIM, seed=seed),
                                     _pool(seed, n=48))
    built["flat"] = _filled(FlatIndex(DIM), vectors)
    built["sharded"] = _filled(
        ShardedIndex(dim=DIM, n_shards=3, nprobe=2, seed=seed), vectors)
    # Training is lazy (it fires inside the next search) and the oracle never
    # trains: settle it now, so both sides score the same clustering.
    built["sharded"].search(vectors[0], 1)
    assert all(shard.is_trained for shard in built["sharded"]._shards)
    return built


@pytest.fixture(scope="module", params=range(3))
def seeded(request):
    seed = request.param
    return _indexes(seed), _queries(_pool(seed), seed)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("kind", ["ivf-nprobe1", "ivf-nprobe2", "ivf-nprobe4",
                                  "ivf-untrained", "flat", "sharded"])
def test_search_batch_equals_the_per_candidate_tail(seeded, kind, k):
    indexes, queries = seeded
    index = indexes[kind]
    want = reference_search_batch(index, queries, k)
    got = index.search_batch(queries, k)
    assert got == want          # keys, float scores and order, exactly
    assert all(type(hit.score) is float for hits in got for hit in hits)
    norms = np.linalg.norm(queries, axis=1)
    assert [bool(hits) for hits in got] == (norms >= _EPS).tolist()
    if k > 1:
        assert any(len({hit.score for hit in hits}) < len(hits)
                   for hits in got), "no exact tie exercised"


def test_several_queries_share_a_probed_cluster(seeded):
    """The batch the oracle is compared on really has the shape the sgemm
    kernel amortises: some cluster is scored for more than one row."""
    indexes, queries = seeded
    index = indexes["ivf-nprobe2"]
    index.search_batch(queries, 5)
    probed = [cluster for _, clusters, _ in index._receipts.values()
              for cluster, _ in clusters]
    assert len(set(probed)) < len(probed)


@pytest.mark.parametrize("k", KS)
def test_sharded_single_merge_equals_a_python_sort(seeded, k):
    indexes, queries = seeded
    index = indexes["sharded"]
    for query in queries:
        merged = [hit for shard in index._shards
                  for hit in shard.search(query, k)]
        merged.sort(key=lambda hit: hit.score, reverse=True)
        assert index.search(query, k) == merged[:k]


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
    vectors = _pool(9, n=64)
    tiny = vectors[2] * 1e-13
    for n in (63, 64):
        index = _filled(IVFIndex(dim=DIM, min_train_size=64, seed=9),
                        vectors[:n])
        assert index.search(vectors[2], 3)
        assert index.is_trained == (n == 64)
        assert index.search(tiny, 3) == []
        assert index.search(tiny, 1) == []
        assert index.search_batch(np.stack([tiny, vectors[2]]), 3)[0] == []
