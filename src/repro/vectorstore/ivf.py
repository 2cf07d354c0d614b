"""Inverted-file (IVF) index: cluster offline, probe nearest clusters online.

Paper section 4.1 balances the per-request matching cost K + N/K and picks
K = sqrt(N) clusters; :func:`optimal_cluster_count` implements exactly that.
The index clusters lazily: entries accumulate in one exact block until
inserts/removes reach :data:`RETRAIN_THRESHOLD` of the pool, then the
clustering is refreshed in the background (here: synchronously on the next
search).  That search pays for the refit, so
:class:`~repro.vectorstore.kmeans.KMeans` keeps it small: one (n, k) distance
matrix plus one fixed-size scratch tile per fit, whatever n and k, and each
Lloyd iteration recomputes only what the previous update moved.

Storage is cluster-major and contiguous, FAISS-style (the section 5
deployment note): every cluster owns a :class:`FlatIndex`, a dense
``(m, dim)`` float32 block plus a parallel key list and the one stored copy
of its vectors, so a query scores a probed cluster in one vectorized pass
(:func:`~repro.vectorstore.flat.ranked`, the kernel every search shares)
instead of a Python loop over posting-list keys, and ``remove`` is an O(1)
swap-delete.  :meth:`IVFIndex.search` is :meth:`IVFIndex.search_batch` of
one, bit for bit.

**Incremental retrain** (:data:`INCREMENTAL_MIN_N`): above this pool size a
staleness-triggered retrain stops re-running global K-Means and instead
recenters every cluster, splits oversized clusters with a seeded 2-means on
their own rows, and retires undersized clusters into their nearest surviving
neighbor.  The schedule is a pure function of journaled state (blocks,
centroids, seed, trainings counter), so WAL replay reproduces it
bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import make_rng, stable_hash
from repro.vectorstore.flat import (_EPS, STORAGE_DTYPE, FlatIndex,
                                    SearchResult, ranked, unit_row,
                                    unit_rows)
from repro.vectorstore.kmeans import KMeans

#: Below this pool size the index searches exactly and never trains.
MIN_TRAIN_SIZE = 64
#: A retrain fires once the churn since the last one (inserts plus removes)
#: reaches this share of the pool.
RETRAIN_THRESHOLD = 0.3
#: Above this pool size a staleness retrain is split/merge maintenance
#: instead of a global K-Means; far above every golden scenario.
INCREMENTAL_MIN_N = 10_000
#: Above this pool size a global retrain fits K-Means on a seeded uniform
#: subsample of this many rows and assigns the rest by nearest centroid.
#: Far above every golden scenario, so behavior at test scales is unchanged.
TRAIN_SAMPLE_CAP = 200_000


def _nearest_centroid(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for every row, chunked to bound the (rows, k)
    distance temporary at large pool sizes."""
    c = np.asarray(centroids, dtype=matrix.dtype)
    c_sq = np.einsum("kd,kd->k", c, c)
    labels = np.empty(matrix.shape[0], dtype=np.intp)
    step = 65_536
    for start in range(0, matrix.shape[0], step):
        chunk = matrix[start : start + step]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
        # constant per row, so argmin only needs the last two.
        scores = chunk @ c.T
        labels[start : start + step] = np.argmin(c_sq - 2.0 * scores, axis=1)
    return labels


def optimal_cluster_count(n: int) -> int:
    """K = argmin_K (K + N/K) = sqrt(N), at least 1."""
    if n <= 0:
        return 1
    return max(1, int(round(math.sqrt(n))))


class IVFIndex:
    """Clustered approximate top-k cosine search with dynamic updates.

    Falls back to exact search below :data:`MIN_TRAIN_SIZE` rows or right
    after heavy churn, mirroring how production ANN deployments keep a fresh
    segment alongside trained shards.

    ``_keys`` (inverted by ``_row``) is *membership* and the add/remove
    swap-delete order a global retrain clusters in; the rows themselves
    live only in the cluster blocks (the whole pool is ``_blocks[0]`` until
    the first training), and a retrain gathers them in that order.
    Scores, order and ties match a per-key loop over the same posting
    lists exactly (stable sort over cluster-probe order, then block row
    order).
    """

    def __init__(self, dim: int, nprobe: int = 2, seed: int = 0) -> None:
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.dim = dim
        self.nprobe = nprobe
        self.seed = seed

        self._keys: list[object] = []
        self._row: dict[object, int] = {}
        self._centroids: np.ndarray | None = None
        self._blocks = [FlatIndex(dim)]
        self._key_to_cluster: dict[object, int] = {}
        self._churn = 0  # inserts and removes since the last train
        self.trainings = 0  # exposed for tests/benchmarks
        self._receipts: dict[tuple, tuple] = {}  # see search(); never saved

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._row

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def n_clusters(self) -> int:
        return 0 if self._centroids is None else self._centroids.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident bytes of dense storage: the cluster blocks."""
        return sum(b.nbytes for b in self._blocks)

    def add(self, key: object, vector: np.ndarray,
            norm: float | None = None) -> None:
        """Insert a new ``key`` (``norm``: see
        :func:`~repro.vectorstore.flat.unit_row`).  A key already held
        (``KeyError``) or a refused vector leaves the index as it was."""
        if key in self._row:
            raise KeyError(f"duplicate key {key!r}")
        unit = unit_row(vector, self.dim, key, norm)
        self._row[key] = len(self._keys)
        self._keys.append(key)
        self._churn += 1
        # Trained: the nearest existing centroid, without retraining.
        cluster = 0 if self._centroids is None \
            else int((self._centroids @ unit).argmax())
        self._blocks[cluster].append(key, unit)
        self._key_to_cluster[key] = cluster

    def remove(self, key: object) -> None:
        row = self._row.pop(key)
        last = self._keys.pop()
        if row < len(self._keys):       # swap-delete, as a block does
            self._keys[row] = last
            self._row[last] = row
        self._blocks[self._key_to_cluster.pop(key)].remove(key)
        self._churn += 1

    def get_vector(self, key: object) -> np.ndarray:
        return self._blocks[self._key_to_cluster[key]].get_vector(key)

    def search(self, query: np.ndarray, k: int) -> list[SearchResult]:
        """Approximate top-k for one query: :meth:`search_batch` of one.

        Admission's dedupe probe asks, at ``k == 1``, the query stage 1 just
        ran at ``pre_k``, and is answered from that query's receipt while
        the receipt stands (``docs/PERFORMANCE.md``, "The dedupe probe
        rides on stage 1").
        """
        raw = np.asarray(query).reshape(1, -1)
        if k == 1:
            self._maybe_train()
            trainings, probed, hit = self._receipts.get(
                (raw.dtype.char, raw.tobytes(), self.nprobe), (None, (), None))
            if trainings == self.trainings:
                for cluster, version in probed:
                    if self._blocks[cluster].version != version:
                        break
                else:
                    return [hit]
        return self.search_batch(raw, k)[0]

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchResult]]:
        """Approximate top-``k`` for each row of ``queries``; exact while
        untrained or small.

        Trained: the batch's centroid scores in one product, each row's
        ``nprobe`` best clusters in descending score, then
        :func:`~repro.vectorstore.flat.ranked`.  A call at ``k != 1``
        drops the previous call's receipts and files one per query with a
        hit, ``(trainings, [(probed cluster, its version)...], top hit)``:
        while all of its stamps stand, that hit is a function of nothing
        else.  A ``k == 1`` call is a probe: it files and drops nothing.
        """
        self._maybe_train()
        if self._centroids is None:
            return self._blocks[0].search_batch(queries, k)
        q, ok = unit_rows(queries, self.dim)
        probes = [probe if fine else [] for probe, fine in zip(
            (-(q @ self._centroids.T)).argsort(axis=1)[:, :self.nprobe]
            .tolist(), ok)]
        every = self._blocks
        results = ranked(k, q, probes, every)
        if k != 1:
            raw = np.asarray(queries)
            self._receipts = {
                (raw.dtype.char, raw[i].tobytes(), self.nprobe): (
                    self.trainings, [(c, every[c].version) for c in probes[i]],
                    hits[0])
                for i, hits in enumerate(results) if hits}
        return results

    def to_state(self) -> dict:
        """Serializable state capturing the full training-relevant history.

        Beyond the settings: the key order (a global retrain gathers the
        pool in it), the blocks with their running sums (the only copy of
        the rows, scored in row order), and the churn counter (it schedules
        the *next* retrain).  See :mod:`repro.persistence.snapshot`.
        """
        return {
            "dim": self.dim,
            "nprobe": self.nprobe,
            "seed": self.seed,
            "keys": list(self._keys),
            "centroids": None if self._centroids is None
            else np.array(self._centroids, dtype=np.float64),
            "blocks": [block.to_state() for block in self._blocks],
            "churn": self._churn,
            "trainings": self.trainings,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IVFIndex":
        """Rebuild an index bit-identical to the one :meth:`to_state` saw;
        blocks that do not hold exactly the state's keys are refused."""
        index = cls(dim=int(state["dim"]), nprobe=int(state["nprobe"]),
                    seed=int(state["seed"]))
        index._keys = list(state["keys"])
        index._row = {key: row for row, key in enumerate(index._keys)}
        centroids = state["centroids"]
        index._centroids = None if centroids is None \
            else np.ascontiguousarray(centroids, dtype=np.float64)
        index._blocks = [FlatIndex.from_state(b) for b in state["blocks"]]
        index._map_keys()
        if sum(map(len, index._blocks)) != len(index._keys) \
                or index._key_to_cluster.keys() != index._row.keys() \
                or len(index._blocks) != max(1, index.n_clusters):
            raise ValueError("state blocks do not hold exactly its keys")
        index._churn = int(state["churn"])
        index.trainings = int(state["trainings"])
        return index

    def retrain(self) -> bool:
        """Force one retrain now; returns whether it happened.

        Used by WAL recovery (:mod:`repro.persistence.wal`) to replay a
        retrain that originally fired lazily inside a search: given the same
        journaled state (key order, blocks, seed, trainings counter),
        the forced retrain reproduces identical centroids and blocks —
        whether the pool size selects the global K-Means path or the
        incremental split/merge path.  A pool below :data:`MIN_TRAIN_SIZE`
        never trains (matching the lazy path), so the call is a no-op there.
        """
        if len(self._keys) < MIN_TRAIN_SIZE:
            return False
        before = self.trainings
        self._churn = max(self._churn, max(
            1, int(RETRAIN_THRESHOLD * len(self._keys))))
        self._maybe_train()
        return self.trainings > before

    def matching_cost(self) -> float:
        """Expected comparisons per query: K + nprobe * N / K (section 4.1)."""
        n = len(self)
        if self._centroids is None or n == 0:
            return float(n)
        k = self.n_clusters
        return k + self.nprobe * n / k

    def _maybe_train(self) -> None:
        n = len(self._keys)
        if n < MIN_TRAIN_SIZE:
            return
        stale = self._centroids is None or self._churn >= max(
            1, int(RETRAIN_THRESHOLD * n)
        )
        if not stale:
            return
        if self._centroids is not None and n >= INCREMENTAL_MIN_N:
            self._incremental_retrain()
        else:
            self._global_retrain()
        self._churn = 0
        self.trainings += 1

    def _global_retrain(self) -> None:
        """Full K-Means over the pool in key order; rebuilds every block.

        Above ``TRAIN_SAMPLE_CAP`` rows the K-Means itself fits on a seeded
        uniform subsample (Lloyd's over the full pool is quadratic-ish in
        practice: n * k * dim per iteration, ~1.3e11 FLOPs per iteration at
        n=1M) and every row is then assigned to its nearest fitted centroid.
        At or below the cap — every golden scenario, by orders of magnitude —
        the fit consumes the full pool and behavior is unchanged.
        """
        keys, matrix = self._keys, self._pool()
        n = len(keys)
        k = optimal_cluster_count(n)
        if n > TRAIN_SAMPLE_CAP:
            rng = make_rng(
                stable_hash("train_sample", self.seed, self.trainings))
            sample = np.sort(rng.choice(n, size=TRAIN_SAMPLE_CAP,
                                        replace=False))
            result = KMeans(n_clusters=k, seed=self.seed).fit(matrix[sample])
            self._set_centroids(result.centroids)
            labels = _nearest_centroid(matrix, result.centroids)
        else:
            result = KMeans(n_clusters=k, seed=self.seed).fit(matrix)
            self._set_centroids(result.centroids)
            labels = result.labels
        # Rebuild the cluster-major blocks: one stable argsort groups the rows
        # by label, members in key order (the order a per-key rebuild
        # would visit), then one contiguous gather per cluster.
        order = np.argsort(labels, kind="stable")
        stops = np.cumsum(np.bincount(labels,
                                      minlength=self._centroids.shape[0]))
        self._blocks = []
        start = 0
        for stop in stops.tolist():
            rows = order[start:stop]
            self._blocks.append(FlatIndex(
                self.dim, [keys[r] for r in rows.tolist()], matrix[rows]))
            start = stop
        self._map_keys()

    def _pool(self) -> np.ndarray:
        """Every stored row in key order, gathered into a transient array."""
        pool = np.empty((len(self._keys), self.dim), dtype=STORAGE_DTYPE)
        for block in self._blocks:
            pool[[self._row[key] for key in block.keys]] = block.matrix
        return pool

    def _set_centroids(self, centroids: np.ndarray) -> None:
        """Store unit-normalized float64 centroids (scored against queries)."""
        c = np.asarray(centroids, dtype=np.float64)
        self._centroids = c / np.maximum(
            np.linalg.norm(c, axis=1, keepdims=True), _EPS
        )

    def _incremental_retrain(self) -> None:
        """Split/merge maintenance instead of a global K-Means.

        Three deterministic passes over the journaled blocks, each iterating
        clusters in index order:

        1. **Recenter** every non-empty cluster on the float64 mean of its
           current members (drift correction after churn).
        2. **Split** clusters above ``2 * n / sqrt(n)`` members via 2-means
           on the cluster's own rows, seeded by
           ``stable_hash("split", seed, trainings, cluster)``; the first
           half stays in place, the second half appends as a new cluster.
        3. **Retire** clusters below a quarter of the target size: their
           members reassign to the nearest surviving centroid, visited in
           retired-cluster-then-row order.

        Recentering reads each block's maintained running sum (O(k * dim)
        total), splits touch only oversized clusters, and the key→cluster
        map is updated in place — a full O(n) rebuild happens only when the
        retire pass compacts cluster indices.  That keeps a retire-free
        maintenance tick in amortized milliseconds at N=1M (the benchmark
        gate), versus O(n * sqrt(n)) for global K-Means.  Inputs are exactly
        the journaled state (blocks with their running sums, seed,
        trainings), so a WAL-replayed retrain reproduces the same schedule
        and bit-identical blocks.
        """
        n = len(self._keys)
        target = n / optimal_cluster_count(n)
        ceiling = max(2, int(2.0 * target))
        floor = max(1, int(target / 4.0))

        centroids = [self._recenter(b) for b in self._blocks]

        # Split pass: only clusters that existed at tick start are eligible;
        # halves appended this tick wait for a later tick.
        for ci in range(len(self._blocks)):
            block = self._blocks[ci]
            if len(block) <= ceiling:
                continue
            sub_seed = stable_hash("split", self.seed, self.trainings, ci)
            result = KMeans(n_clusters=2, seed=sub_seed).fit(block.matrix)
            half = np.flatnonzero(result.labels == 1)
            if half.size == 0 or half.size == len(block):
                continue  # degenerate split (identical rows): keep as-is
            keep = np.flatnonzero(result.labels == 0)
            moved_keys = [block.keys[i] for i in half]
            kept = FlatIndex(self.dim, [block.keys[i] for i in keep],
                             block.matrix[keep])
            self._blocks[ci] = kept
            centroids[ci] = self._recenter(kept)
            new_block = FlatIndex(self.dim, moved_keys, block.matrix[half])
            self._blocks.append(new_block)
            centroids.append(self._recenter(new_block))
            new_ci = len(self._blocks) - 1
            for key in moved_keys:
                self._key_to_cluster[key] = new_ci

        # Retire pass: survivors keep their relative order; retired members
        # reassign to the nearest surviving centroid.
        survivors = [ci for ci, b in enumerate(self._blocks)
                     if len(b) >= floor and centroids[ci] is not None]
        if not survivors:
            # Pathological (every cluster tiny): keep the largest, lowest
            # index winning ties, so at least one cluster always survives.
            sizes = [len(b) for b in self._blocks]
            survivors = [sizes.index(max(sizes))]
        if len(survivors) < len(self._blocks):
            surv_set = set(survivors)
            surv_blocks = [self._blocks[ci] for ci in survivors]
            surv_centroids = np.stack([centroids[ci] for ci in survivors])
            for ci, block in enumerate(self._blocks):
                if ci in surv_set:
                    continue
                for key, vec in zip(block.keys, block.matrix):
                    dest = int(np.argmax(surv_centroids @ vec))
                    surv_blocks[dest].append(key, vec)
            self._blocks = surv_blocks
            centroids = [self._recenter(b) for b in self._blocks]
            # Compaction renumbered every surviving cluster: this is the one
            # path that still pays a full O(n) key-map rebuild.  Recenter and
            # split maintain the map in place, so a retire-free tick (the
            # steady state the N=1M gate times) never touches all n entries.
            self._map_keys()

        self._centroids = np.stack(centroids)

    def _map_keys(self) -> None:
        self._key_to_cluster = {key: cluster
                                for cluster, block in enumerate(self._blocks)
                                for key in block.keys}

    def _recenter(self, block: FlatIndex) -> np.ndarray | None:
        """Unit-normalized float64 mean of a block's rows (None if empty).

        Reads the block's maintained running sum — O(dim), not a pass over
        the rows — which is what keeps the whole recenter sweep O(k * dim)
        at N=1M.  For a freshly built block the sum equals the pairwise
        ``mean`` reduction bit-for-bit; after incremental churn it carries
        the (deterministic, journaled) accumulation order instead.
        """
        m = len(block.keys)
        if not m:
            return None
        mean = block.running_sum / m
        return mean / max(float(np.linalg.norm(mean)), _EPS)
