"""Inverted-file (IVF) index: cluster offline, probe nearest clusters online.

Paper section 4.1 balances the per-request matching cost K + N/K and picks
K = sqrt(N) clusters; :func:`optimal_cluster_count` implements exactly that.
The index clusters lazily: entries accumulate in the exact flat index until
``retrain_threshold`` inserts/removes have occurred, then the clustering is
refreshed in the background (here: synchronously on the next search).  That
search pays for the refit, so :class:`~repro.vectorstore.kmeans.KMeans` keeps
it small: one (n, k) distance matrix plus one fixed-size scratch tile per
fit, whatever n and k, and each Lloyd iteration recomputes only what the
previous update moved.

Storage is cluster-major and contiguous, FAISS-style (the section 5
deployment note): every cluster owns a dense ``(m, dim)`` float32 block plus
a parallel key array, so a single-query probe is one ``block @ q``
matrix-vector product instead of a Python loop over posting-list keys, and
``remove`` is an O(1) swap-delete against the block's key->row map.  The
batched path (:meth:`IVFIndex.search_batch`) reuses the same blocks, scoring
each probed cluster for all of its querying rows in one matmul.

**Incremental retrain** (``incremental_min_n``): above this pool size a
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
                                    SearchResult, finish, unit_rows)
from repro.vectorstore.kmeans import KMeans

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


class _ClusterBlock:
    """One posting list as contiguous storage: a dense vector block plus keys.

    ``keys[i]`` labels row ``i`` of the block; ``_pos`` inverts that mapping
    so removal is an O(1) swap-with-last (the same scheme
    :class:`~repro.vectorstore.flat.FlatIndex` uses for its global storage).
    Capacity grows by doubling, so appends are amortized O(1).  ``keys`` is
    the live list — callers may iterate it but must not mutate it.

    A float64 running sum of the member rows rides along (``running_sum``),
    updated on every append/remove, so recentering a cluster during
    incremental retrain is O(dim) instead of an O(members * dim) pass over
    the block.  It is journaled state: the incremental updates accumulate
    in a different order than a fresh pairwise reduction would, so a
    restored index must inherit the exact sum (not recompute it) for its
    next retrain to stay bit-identical to the uninterrupted control.  Fresh
    blocks compute the sum with the same pairwise reduction ``mean`` uses,
    so construction bits never drift.

    ``version`` counts ``append`` / ``remove`` calls, the only ways the rows
    or their order move; search receipts are stamped with it.  Not journaled.
    """

    __slots__ = ("keys", "_pos", "_vectors", "_sum", "version")

    def __init__(self, dim: int, keys: list[object] | None = None,
                 vectors: np.ndarray | None = None,
                 running_sum: np.ndarray | None = None) -> None:
        self.version = 0
        if keys is None:
            self.keys: list[object] = []
            self._pos: dict[object, int] = {}
            self._vectors = np.empty((0, dim), dtype=STORAGE_DTYPE)
        else:
            self.keys = list(keys)
            self._pos = {key: row for row, key in enumerate(self.keys)}
            self._vectors = np.ascontiguousarray(vectors, dtype=STORAGE_DTYPE)
        if running_sum is not None:
            self._sum = np.array(running_sum, dtype=np.float64)
        else:
            self._sum = self._vectors[: len(self.keys)].sum(
                axis=0, dtype=np.float64) if self.keys \
                else np.zeros(dim, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the float32 rows (capacity, not just live)."""
        return self._vectors.nbytes

    def view(self) -> np.ndarray:
        """The live (m, dim) float32 block of member vectors (no copy)."""
        return self._vectors[: len(self.keys)]

    @property
    def running_sum(self) -> np.ndarray:
        """The maintained float64 sum of the live rows (journaled state)."""
        return self._sum

    def append(self, key: object, vector: np.ndarray) -> None:
        row = len(self.keys)
        if row == self._vectors.shape[0]:  # grow capacity by doubling
            cap = max(8, 2 * row)
            grown = np.empty((cap, self._vectors.shape[1]),
                             dtype=STORAGE_DTYPE)
            grown[:row] = self._vectors[:row]
            self._vectors = grown
        self._vectors[row] = vector
        self._sum += self._vectors[row]  # the stored (float32-cast) row
        self._pos[key] = row
        self.keys.append(key)
        self.version += 1

    def remove(self, key: object) -> None:
        self.version += 1
        row = self._pos.pop(key)
        self._sum -= self._vectors[row]
        last = len(self.keys) - 1
        if row != last:
            moved = self.keys[last]
            self.keys[row] = moved
            self._vectors[row] = self._vectors[last]
            self._pos[moved] = row
        self.keys.pop()


class IVFIndex:
    """Clustered approximate top-k cosine search with dynamic updates.

    Falls back to exact search while the pool is small (< ``min_train_size``)
    or right after heavy churn, mirroring how production ANN deployments keep
    a fresh segment alongside trained shards.

    The flat index remains the single source of truth for *membership* and
    the K-Means training data (its row order is what a global retrain
    clusters); the per-cluster blocks are the serving layout derived from it.
    Scores are identical to a per-key Python loop up to float32 accumulation
    order, and candidate ordering — including tie-breaking — matches a
    per-key loop over the same posting lists exactly (stable sort over
    cluster-probe order, then block row order).

    ``incremental_min_n`` gates split/merge maintenance; see the module
    docstring.  Its default only engages above pools far larger than any
    golden scenario builds.
    """

    def __init__(self, dim: int, nprobe: int = 2, min_train_size: int = 64,
                 retrain_threshold: float = 0.3, seed: int = 0,
                 incremental_min_n: int = 10_000) -> None:
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        if not 0.0 < retrain_threshold <= 1.0:
            raise ValueError(f"retrain_threshold must be in (0,1], got {retrain_threshold}")
        if incremental_min_n < 1:
            raise ValueError(
                f"incremental_min_n must be >= 1, got {incremental_min_n}")
        self.dim = dim
        self.nprobe = nprobe
        self.min_train_size = min_train_size
        self.retrain_threshold = retrain_threshold
        self.seed = seed
        self.incremental_min_n = incremental_min_n

        self._flat = FlatIndex(dim)
        self._centroids: np.ndarray | None = None
        self._blocks: list[_ClusterBlock] = []
        self._key_to_cluster: dict[object, int] = {}
        self._churn = 0  # churn events (insert/remove/overwrite) since last train
        self.trainings = 0  # exposed for tests/benchmarks
        self._receipts: dict[tuple, tuple] = {}  # see search(); never saved

    def __len__(self) -> int:
        return len(self._flat)

    def __contains__(self, key: object) -> bool:
        return key in self._flat

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def n_clusters(self) -> int:
        return 0 if self._centroids is None else self._centroids.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident bytes of dense storage: flat matrix + cluster blocks."""
        return self._flat.nbytes + sum(b.nbytes for b in self._blocks)

    def add(self, key: object, vector: np.ndarray) -> None:
        """Insert ``key``; an overwrite of an existing key is ONE churn event
        (not an internal remove plus an insert), so retrains keep the cadence
        ``retrain_threshold`` promises."""
        if key in self._flat:
            self._drop(key)
        self._flat.add(key, vector)
        self._churn += 1
        if self._centroids is not None:
            # Assign to nearest existing centroid without retraining.
            vec = self._flat.get_vector(key)
            cluster = int(np.argmax(self._centroids @ vec))
            self._blocks[cluster].append(key, vec)
            self._key_to_cluster[key] = cluster

    def remove(self, key: object) -> None:
        self._drop(key)
        self._churn += 1

    def _drop(self, key: object) -> None:
        """Remove ``key`` from storage without counting a churn event."""
        self._flat.remove(key)
        cluster = self._key_to_cluster.pop(key, None)
        if cluster is not None:
            self._blocks[cluster].remove(key)

    def get_vector(self, key: object) -> np.ndarray:
        return self._flat.get_vector(key)

    def search(self, query: np.ndarray, k: int) -> list[SearchResult]:
        """Approximate top-k; exact while untrained or small.

        Trained path: one ``block @ q`` matrix-vector product per probed
        cluster, then :func:`~repro.vectorstore.flat.finish`.

        Admission's dedupe probe asks, at ``k == 1``, the query stage 1 just
        ran at ``pre_k``.  So every trained stage-1 call (this one at
        ``k != 1``, :meth:`search_batch`) drops the previous call's receipts
        and files one per query, ``(trainings, [(probed cluster, its
        version)...], top hit)``, and ``k == 1`` answers from it while all of
        those stand — the answer is a function of nothing else
        (``docs/PERFORMANCE.md``, "The dedupe probe rides on stage 1").
        """
        self._maybe_train()
        if self._centroids is None:
            return self._flat.search(query, k)

        raw = np.asarray(query)
        question = (raw.dtype.char, raw.tobytes(), self.nprobe)
        every = self._blocks
        if k != 1:
            self._receipts = {}
        else:
            trainings, probed, hit = self._receipts.get(question, (None, (), None))
            if trainings == self.trainings:
                for cluster, version in probed:
                    if every[cluster].version != version:
                        break
                else:
                    return [hit]

        q = np.asarray(query, dtype=np.float64).reshape(-1)
        qnorm = math.sqrt(q.dot(q))     # np.linalg.norm's own 1-D path
        if qnorm < _EPS or k <= 0:
            return []
        q = q / qnorm
        probe = (-(self._centroids @ q)).argsort()[:self.nprobe].tolist()
        # Block scoring happens in storage precision: a float64 query would
        # silently upcast every probed block per call.
        q32 = q.astype(STORAGE_DTYPE)
        blocks = [every[c] for c in probe if every[c].keys]
        # One vectorized product per probed cluster.  einsum, not BLAS
        # gemv: its per-row accumulation is a pure function of row
        # content, so identical vectors score identically wherever they
        # sit in the block — BLAS kernels can differ in the last ulp by
        # row position, which would break exact ties nondeterministically.
        hits = finish(k, [np.einsum("ij,j->i", block.view(), q32)
                          for block in blocks], [b.keys for b in blocks])
        if k != 1 and hits:
            self._receipts[question] = (self.trainings, [
                (c, every[c].version) for c in probe], hits[0])
        return hits

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchResult]]:
        """Approximate top-``k`` for a micro-batch of queries.

        Centroids are scored for the whole batch in one matmul, queries are
        grouped by probed cluster, and each cluster's contiguous block is
        multiplied once per querying subset (``Q_sub @ block.T``) — no
        per-call row gathering, which is the amortization that makes batched
        serving pay off (section 7's throughput experiments assume this).
        Every query files a receipt (:meth:`search`) for its sgemm-scored top.
        """
        self._maybe_train()
        if self._centroids is None:
            return self._flat.search_batch(queries, k)
        q, valid = unit_rows(queries, self.dim)
        if k <= 0:
            return [[] for _ in valid]
        nprobe = min(self.nprobe, self.n_clusters)
        probes = (-(q @ self._centroids.T)).argpartition(    # (batch, K)
            nprobe - 1, axis=1)[:, :nprobe].tolist()
        q32 = q.astype(STORAGE_DTYPE)

        by_cluster: dict[int, list[int]] = {}
        for qi in valid.nonzero()[0].tolist():
            for cluster in probes[qi]:
                by_cluster.setdefault(cluster, []).append(qi)

        every = self._blocks
        found = [[] for _ in probes]     # per query: (chunk, key list, rows)
        for cluster, rows in by_cluster.items():
            members = every[cluster].keys
            m = len(members)
            if not m:
                continue
            scores = q32[rows] @ every[cluster].view().T    # (rows, m)
            keep = min(k, m)
            for s, qi in zip(scores, rows):
                top = (-s).argpartition(keep - 1)[:keep] if m > keep \
                    else np.arange(m)
                found[qi].append((s[top], members, top))
        results = [finish(k, *zip(*parts)) if parts else []
                   for parts in found]
        raw = np.asarray(queries).reshape(len(probes), -1)
        self._receipts = {
            (raw.dtype.char, raw[qi].tobytes(), self.nprobe): (
                self.trainings, [(c, every[c].version) for c in probes[qi]],
                hits[0])
            for qi, hits in enumerate(results) if hits}
        return results

    def to_state(self) -> dict:
        """Serializable state capturing the full training-relevant history.

        Beyond membership, four things must survive a round-trip for a
        restored index to behave bit-identically: the flat storage's row
        order (a global retrain reads it), the cluster-major blocks (probe
        scoring iterates block rows for tie-breaking, and the incremental
        split/merge schedule is a function of them), each block's running
        sum (recentering reads it, and its incremental accumulation order
        is not recoverable from the rows), and the churn counter (it
        schedules the *next* retrain).  See
        :mod:`repro.persistence.snapshot` for the on-disk encoding.
        """
        return {
            "dim": self.dim,
            "nprobe": self.nprobe,
            "min_train_size": self.min_train_size,
            "retrain_threshold": self.retrain_threshold,
            "seed": self.seed,
            "incremental_min_n": self.incremental_min_n,
            "flat": self._flat.to_state(),
            "centroids": None if self._centroids is None
            else np.array(self._centroids, dtype=np.float64),
            "blocks": [
                {"keys": list(block.keys),
                 "vectors": np.array(block.view(), dtype=STORAGE_DTYPE),
                 "sum": np.array(block.running_sum, dtype=np.float64)}
                for block in self._blocks
            ],
            "churn": self._churn,
            "trainings": self.trainings,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IVFIndex":
        """Rebuild an index bit-identical to the one :meth:`to_state` saw."""
        index = cls(
            dim=int(state["dim"]),
            nprobe=int(state["nprobe"]),
            min_train_size=int(state["min_train_size"]),
            retrain_threshold=float(state["retrain_threshold"]),
            seed=int(state["seed"]),
            incremental_min_n=int(state["incremental_min_n"]),
        )
        index._flat = FlatIndex.from_state(state["flat"])
        centroids = state["centroids"]
        index._centroids = None if centroids is None \
            else np.ascontiguousarray(centroids, dtype=np.float64)
        index._blocks = [
            _ClusterBlock(index.dim, keys=block["keys"],
                          vectors=block["vectors"],
                          running_sum=block["sum"])
            for block in state["blocks"]
        ]
        index._key_to_cluster = {
            key: cluster
            for cluster, block in enumerate(index._blocks)
            for key in block.keys
        }
        index._churn = int(state["churn"])
        index.trainings = int(state["trainings"])
        return index

    def retrain(self) -> bool:
        """Force one retrain now; returns whether it happened.

        Used by WAL recovery (:mod:`repro.persistence.wal`) to replay a
        retrain that originally fired lazily inside a search: given the same
        journaled state (flat row order, blocks, seed, trainings counter),
        the forced retrain reproduces identical centroids and blocks —
        whether the pool size selects the global K-Means path or the
        incremental split/merge path.  A pool below ``min_train_size`` never
        trains (matching the lazy path), so the call is a no-op there.
        """
        if len(self._flat) < self.min_train_size:
            return False
        before = self.trainings
        self._churn = max(self._churn,
                          max(1, int(self.retrain_threshold * len(self._flat))))
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
        n = len(self._flat)
        if n < self.min_train_size:
            return
        stale = self._centroids is None or self._churn >= max(
            1, int(self.retrain_threshold * n)
        )
        if not stale:
            return
        if self._centroids is not None and n >= self.incremental_min_n:
            self._incremental_retrain()
        else:
            self._global_retrain()
        self._churn = 0
        self.trainings += 1

    def _global_retrain(self) -> None:
        """Full K-Means over the flat pool; rebuilds every block.

        Above ``TRAIN_SAMPLE_CAP`` rows the K-Means itself fits on a seeded
        uniform subsample (Lloyd's over the full pool is quadratic-ish in
        practice: n * k * dim per iteration, ~1.3e11 FLOPs per iteration at
        n=1M) and every row is then assigned to its nearest fitted centroid.
        At or below the cap — every golden scenario, by orders of magnitude —
        the fit consumes the full pool and behavior is unchanged.
        """
        keys = self._flat.keys
        matrix = self._flat.matrix  # rows align with ``keys``; no copy
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
        # by label, members in flat row order (the order a per-key rebuild
        # would visit), then one contiguous gather per cluster.
        order = np.argsort(labels, kind="stable")
        stops = np.cumsum(np.bincount(labels,
                                      minlength=self._centroids.shape[0]))
        self._blocks = []
        self._key_to_cluster = {}
        start = 0
        for cluster, stop in enumerate(stops.tolist()):
            rows = order[start:stop]
            block_keys = [keys[r] for r in rows.tolist()]
            self._blocks.append(_ClusterBlock(
                self.dim, keys=block_keys, vectors=matrix[rows]))
            self._key_to_cluster.update(dict.fromkeys(block_keys, cluster))
            start = stop

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
        n = len(self._flat)
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
            result = KMeans(n_clusters=2, seed=sub_seed).fit(block.view())
            half = np.flatnonzero(result.labels == 1)
            if half.size == 0 or half.size == len(block):
                continue  # degenerate split (identical rows): keep as-is
            keep = np.flatnonzero(result.labels == 0)
            moved_keys = [block.keys[i] for i in half]
            moved_vecs = np.array(block.view()[half], dtype=STORAGE_DTYPE)
            kept = _ClusterBlock(
                self.dim, keys=[block.keys[i] for i in keep],
                vectors=block.view()[keep],
            )
            self._blocks[ci] = kept
            centroids[ci] = self._recenter(kept)
            new_block = _ClusterBlock(self.dim, keys=moved_keys,
                                      vectors=moved_vecs)
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
                for row in range(len(block)):
                    vec = block.view()[row]
                    dest = int(np.argmax(surv_centroids @ vec))
                    surv_blocks[dest].append(block.keys[row], vec)
            self._blocks = surv_blocks
            centroids = [self._recenter(b) for b in self._blocks]
            # Compaction renumbered every surviving cluster: this is the one
            # path that still pays a full O(n) key-map rebuild.  Recenter and
            # split maintain the map in place, so a retire-free tick (the
            # steady state the N=1M gate times) never touches all n entries.
            self._key_to_cluster = {
                key: cluster
                for cluster, block in enumerate(self._blocks)
                for key in block.keys
            }

        self._centroids = np.stack(centroids)

    def _recenter(self, block: _ClusterBlock) -> np.ndarray | None:
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
