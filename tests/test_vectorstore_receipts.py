"""Search receipts: the dedupe probe reads what stage 1 already computed.

Every trained stage-1 call (:meth:`IVFIndex.search` at ``k != 1``,
:meth:`IVFIndex.search_batch`) files one receipt per query — ``(trainings,
[(probed cluster, its version)...], top hit)`` — and ``search(q, 1)``
answers from it while ``trainings`` and every probed block's version stand.
The properties, over arbitrary interleavings of add / overwrite / remove /
forced retrain / ``search`` / ``search_batch`` / ``search(q, 1)``:

* every ``k == 1`` answer equals the answer of a receipt-free clone
  (``from_state(to_state())``) asked through the kernel that filed the
  receipt — einsum for ``search``, the same sgemm batch for ``search_batch``;
* a mutation of a probed block, or a retrain, always forces a rescoring; a
  mutation anywhere else never does (observed by identity: a receipt hands
  back the very ``SearchResult`` stage 1 returned, a rescoring builds one);
* the receipt table never holds more than the last stage-1 call's queries;
* ``to_state()`` is unchanged by any number of probes, and a restored index
  starts with no receipts.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence.snapshot import _encode
from repro.vectorstore import IVFIndex, ShardedIndex

from tests.strategies import DETERMINISM, VectorPool, vector_pools

N_QUERIES = 3

_key = st.integers(0, 40)
_row = st.integers(0, 10_000)
_query = st.integers(0, N_QUERIES - 1)
_probe = st.tuples(st.just("probe"), _query)
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), _key, _row),          # a new key, or overwrite
    # ... beside a query, so it lands in a block that query probes
    st.tuples(st.just("add_near"), _key, _query),
    st.tuples(st.just("remove"), _key),
    st.tuples(st.just("retrain")),
    st.tuples(st.just("search"), _query, st.sampled_from([2, 5, 20])),
    st.tuples(st.just("search_batch"),
              st.lists(_query, min_size=1, max_size=6),
              st.sampled_from([1, 5, 20])),
    _probe, _probe, _probe,     # listed thrice: half of all ops are probes
), min_size=8, max_size=40)


def _state_bytes(index) -> str:
    return json.dumps(_encode(index.to_state()))


def _question(index: IVFIndex, query: np.ndarray) -> tuple:
    raw = np.asarray(query)
    return (raw.dtype.char, raw.tobytes(), index.nprobe)


class _Model:
    """What one :class:`IVFIndex` must do, tracked from outside."""

    def __init__(self, index: IVFIndex) -> None:
        self.index = index
        self.filed: dict[tuple, tuple] = {}     # the table as last filed
        self.kernel = None                      # ("search", q, k) | ("batch", Q, k)
        self.dirty: set[int] = set()            # clusters mutated since
        self.last_call = 0                      # queries of that call

    def filed_by(self, *kernel) -> None:
        self.filed = dict(self.index._receipts)
        self.kernel = kernel
        self.dirty = set()
        self.last_call = 1 if kernel[0] == "search" else len(kernel[1])
        self.check_bound()

    @contextlib.contextmanager
    def touching(self, key):
        """Around one mutation of ``key``: the cluster it leaves and the
        cluster it joins are dirty afterwards (``None`` while untrained)."""
        self.dirty.add(self.index._key_to_cluster.get(key))
        yield
        self.dirty.add(self.index._key_to_cluster.get(key))

    def check_bound(self) -> None:
        assert len(self.index._receipts) <= self.last_call

    def unless_retrain_due(self, expect: str) -> str:
        """Churn is counted index-wide: a mutation *elsewhere* can still be
        the one that makes the next search retrain, and a retrain fells every
        receipt.  ``expect`` holds only while none is due."""
        index = self.index
        due = index._churn >= max(1, int(index.retrain_threshold * len(index)))
        return "stale" if due else expect

    def expected(self, query: np.ndarray):
        """``(is the receipt still good, the clone's answer)`` — computed on
        a receipt-free clone *before* the live index is asked."""
        index = self.index
        clone = IVFIndex.from_state(index.to_state())
        assert clone._receipts == {}
        clone._maybe_train()        # the lazy retrain the probe would fire
        receipt = self.filed.get(_question(index, query))
        good = (receipt is not None
                and clone.is_trained
                and receipt[0] == clone.trainings
                and not self.dirty & {cluster for cluster, _ in receipt[1]})
        if good and self.kernel[0] == "batch":
            _, batch, k = self.kernel
            # Duplicate rows of one batch file one receipt, the last row's.
            row = max(i for i, q in enumerate(batch)
                      if q.tobytes() == query.tobytes())
            want = clone.search_batch(np.stack(batch), k)[row][:1]
        else:
            want = clone.search(query, 1)
        return good, receipt, want

    def probe(self, query: np.ndarray, expect: str | None = None) -> list:
        """Ask ``search(query, 1)`` and hold the answer to the model;
        ``expect`` ("standing" / "stale") also pins which way it went."""
        good, receipt, want = self.expected(query)
        if expect is not None and self.index.is_trained:
            assert receipt is not None
            assert good == (expect == "standing"), expect
        index = self.index
        before = _state_bytes(index), index.trainings
        got = index.search(query, 1)
        assert got == want
        if good:
            assert got[0] is receipt[2], "a standing receipt was rescored"
        elif receipt is not None and got:
            assert got[0] is not receipt[2], "a stale receipt answered"
        if index.trainings == before[1]:
            assert _state_bytes(index) == before[0]
        self.check_bound()
        return got


def _drive(index, models: list[_Model], model_of, pool: VectorPool, ops):
    """Run ``ops`` through ``index``'s public API, keeping each shard's model
    in step; ``model_of(key)`` names the model a key's mutations land on."""
    queries = pool.queries(N_QUERIES)
    rng = np.random.default_rng(pool.seed + 5)
    for op in ops:
        if op[0] in ("add", "add_near"):
            key = f"k{op[1]}"
            near = pool.vectors[op[2] % pool.n] if op[0] == "add" \
                else queries[op[2]]
            vector = near + rng.normal(0, 0.05, pool.dim)
            with model_of(key).touching(key):
                index.add(key, vector)
        elif op[0] == "remove":
            key = f"k{op[1]}"
            if key in index:
                with model_of(key).touching(key):
                    index.remove(key)
        elif op[0] == "retrain":
            for model in models:
                model.index.retrain()
        elif op[0] == "search":
            query = queries[op[1]]
            index.search(query, op[2])
            for model in models:
                model.filed_by("search", query, op[2])
        elif op[0] == "search_batch":
            batch = [queries[i] for i in op[1]]
            index.search_batch(np.stack(batch), op[2])
            for model in models:
                model.filed_by("batch", batch, op[2])
        else:
            query = queries[op[1]]
            per_model = [model.probe(query) for model in models]
            if len(models) > 1:     # then the fan-out merge of those answers
                best = max((hits[0] for hits in per_model if hits),
                           key=lambda hit: hit.score, default=None)
                merged = index.search(query, 1)
                assert merged == ([best] if best else [])
        for model in models:
            model.check_bound()
    for model in models:
        _epilogue(model, queries)


def _epilogue(model: _Model, queries: np.ndarray) -> None:
    """Whatever the draw explored, every example ends by walking each branch
    once on the index it left behind, through both kernels."""
    index = model.index
    query = queries[0]

    def file_through(kernel: str) -> None:
        if kernel == "search":
            index.search(query, 5)
            model.filed_by("search", query, 5)
        else:
            index.search_batch(queries, 5)
            model.filed_by("batch", list(queries), 5)

    for kernel in ("search", "batch"):
        file_through(kernel)
        top = model.probe(query, expect="standing")
        if not index.is_trained or not top:
            return
        probed = {c for c, _ in model.filed[_question(index, query)][1]}
        spare = [c for c in range(index.n_clusters)
                 if c not in probed and index._blocks[c].keys]
        if spare:           # a mutation elsewhere: the receipt stands
            vector = index._blocks[spare[0]].view()[0].astype(np.float64)
            with model.touching("elsewhere"):
                index.add("elsewhere", vector)
            if index._key_to_cluster["elsewhere"] not in probed:
                expect = model.unless_retrain_due("standing")
                again = model.probe(query, expect=expect)
                assert (again[0] is top[0]) == (expect == "standing")
            with model.touching("elsewhere"):
                index.remove("elsewhere")
        with model.touching("twin"):    # a mutation of a probed block
            index.add("twin", query)
        if index._key_to_cluster["twin"] in probed:
            assert model.probe(query, expect="stale")[0] is not top[0]
        with model.touching("twin"):
            index.remove("twin")
        # ... and a *removal* from one: the filed top hit itself goes.
        file_through(kernel)
        gone = model.filed[_question(index, query)][2].key
        vector = index.get_vector(gone).astype(np.float64)
        with model.touching(gone):
            index.remove(gone)
        after = model.probe(query, expect="stale")
        assert gone not in [hit.key for hit in after]
        with model.touching(gone):
            index.add(gone, vector)
    file_through("batch")
    if index.retrain():                 # centroids moved: every receipt falls
        model.probe(query, expect="stale")


@settings(**DETERMINISM)
@given(pool=vector_pools(min_duplicates=2), ops=operations,
       nprobe=st.sampled_from([1, 2, 3]))
def test_receipts_on_an_ivf_index(pool, ops, nprobe):
    index = IVFIndex(dim=pool.dim, nprobe=nprobe, retrain_threshold=0.1,
                     seed=pool.seed % 97)
    for row, vector in enumerate(pool.vectors):
        index.add(row, vector)
    model = _Model(index)
    _drive(index, [model], lambda key: model, pool, ops)


@settings(**DETERMINISM)
@given(pool=vector_pools(min_duplicates=2), ops=operations)
def test_receipts_on_a_sharded_index(pool, ops):
    index = ShardedIndex(dim=pool.dim, n_shards=2, nprobe=2,
                         min_train_size=24, retrain_threshold=0.1,
                         seed=pool.seed % 97)
    for row, vector in enumerate(pool.vectors):
        index.add(row, vector)
    models = [_Model(shard) for shard in index._shards]
    _drive(index, models, lambda key: models[index.shard_of(key)], pool, ops)


# -- the rule, once, in plain sight ------------------------------------------

def _trained(pool: VectorPool, nprobe: int = 2) -> IVFIndex:
    index = IVFIndex(dim=pool.dim, nprobe=nprobe, seed=1)
    for row, vector in enumerate(pool.vectors):
        index.add(row, vector)
    assert index.retrain()
    return index


def test_only_a_probed_block_or_a_retrain_costs_a_rescoring():
    pool = VectorPool(seed=3, n=150, dim=8, duplicates=[(0, 1)])
    index = _trained(pool)
    queries = pool.queries(4)
    filed = index.search_batch(queries, 20)
    query, top = queries[0], filed[0][0]
    _, stamps, _ = index._receipts[_question(index, query)]
    probed = {cluster for cluster, _ in stamps}
    elsewhere = next(c for c in range(index.n_clusters)
                     if c not in probed and index._blocks[c].keys)
    far = index._blocks[elsewhere].view()[0]

    assert index.search(query, 1)[0] is top
    index.add("far", far)                               # unprobed cluster
    assert index._key_to_cluster["far"] == elsewhere
    assert index.search(query, 1)[0] is top
    index.remove("far")
    assert index.search(query, 1)[0] is top

    index.add("twin", query)                            # a probed cluster
    assert index._key_to_cluster["twin"] in probed
    rescored = index.search(query, 1)
    assert rescored[0].key == "twin" and rescored[0] is not top

    index.search_batch(queries, 20)
    assert index.retrain()                              # centroids moved
    fresh = IVFIndex.from_state(index.to_state()).search(query, 1)
    assert index.search(query, 1) == fresh


def test_receipts_are_the_last_calls_and_never_saved():
    pool = VectorPool(seed=5, n=120, dim=8, duplicates=[])
    index = _trained(pool)
    queries = pool.queries(6)
    index.search_batch(queries, 5)
    assert len(index._receipts) == 6
    index.search(queries[0], 5)
    assert list(index._receipts) == [_question(index, queries[0])]
    index.search(queries[1], 1)             # a probe neither files nor drops
    assert list(index._receipts) == [_question(index, queries[0])]
    saved = _state_bytes(index)
    for query in queries:
        index.search(query, 1)
    assert _state_bytes(index) == saved
    assert "receipt" not in saved
    assert IVFIndex.from_state(index.to_state())._receipts == {}


def test_a_query_in_another_dtype_is_another_question():
    pool = VectorPool(seed=6, n=120, dim=8, duplicates=[])
    index = _trained(pool)
    query = pool.queries(1)[0]
    top = index.search(query, 5)[0]
    assert index.search(query, 1)[0] is top
    narrowed = index.search(query.astype(np.float32), 1)
    assert narrowed[0] is not top
    assert narrowed == IVFIndex.from_state(index.to_state()).search(
        query.astype(np.float32), 1)
