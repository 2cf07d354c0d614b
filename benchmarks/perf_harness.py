"""Serve hot-path performance harness: the repo's perf trajectory recorder.

Measures the single-request serve loop the online figures (Fig. 12/13/20)
exercise per request, at three levels:

* **search** — vectorized :meth:`IVFIndex.search` (one ``block @ q`` product
  per probed contiguous cluster block) against a reference per-candidate
  Python loop (the pre-contiguous-layout implementation), at N examples;
* **churn** — index maintenance cost: trained add/remove throughput
  (O(1) swap-deletes against the cluster blocks) and a full K-Means retrain;
* **kmeans** — the global-retrain regime between the trivial fit and
  ``incremental_min_n`` (N=3k/6k, where every ``bench_e2e`` retrain runs):
  ``KMeans.fit`` time, its in-run speedup over the preserved reference
  Lloyd loop (``tests/kmeans_reference.py``), and the deterministic work
  counter — distance columns computed / (iterations x k) — gated exactly;
* **serve** — steady-state end-to-end ``ICCacheService.serve`` throughput on
  a seeded example bank (embedding + stage-1 IVF search + vectorized
  stage-2 proxy scoring + routing + generation + learning);
* **runtime** — the event-driven serving runtime: raw
  :class:`~repro.runtime.loop.EventLoop` dispatch throughput (events/sec)
  and end-to-end simulated serving throughput through
  :class:`~repro.serving.cluster.ClusterSimulator` (simulated
  requests/sec on a trivial router, isolating scheduler overhead);
* **persistence** — durable-state cost: full-service snapshot save and
  restore throughput (examples/sec and bytes) at the standard serve-bench
  bank size, so checkpointing cost rides the same recorded trajectory as
  the serve hot path (see ``docs/PERSISTENCE.md``);
* **lifecycle** — the Example Manager's columnar hot paths over the
  struct-of-arrays :class:`~repro.core.table.ExampleTable`: vectorized
  gain decay (us/maintenance tick), the knapsack eviction pass one
  example over budget (us/pass, with its in-run speedup over the
  per-object pass and the rows it had to rank, a count gated exactly)
  and 30% over budget (us/pass), and the cache-level
  columnar snapshot roundtrip (examples/sec), at N=10k and N=50k
  synthetic pools;
* **memory** — resident bytes per vector for the flat storage and the IVF
  cluster blocks (measured via ``nbytes``, not estimated), recorded per
  pool size so a dtype regression (float32 silently upcast back to
  float64) doubles a gated number instead of hiding;
* **scale** (``REPRO_PERF_FULL=1`` or ``--full``) — the N=1M story: build,
  two-pass int8+rescore search vs exact flat recall@5, steady-state
  incremental-retrain amortization per maintenance tick, and (under
  ``scale.pool``) the lifecycle bench at a 1M-example pool, gating the
  bulk-array restore rate and the maintenance-tick decay at full scale.

Results are written to ``BENCH_serve_hotpath.json`` so every future perf PR
is measured against a recorded trajectory, and ``--check`` gates CI against
``benchmarks/BENCH_serve_hotpath_baseline.json`` (>30% regressions fail on
serve/search/runtime throughput, snapshot save/restore throughput, and
retrain / K-Means fit time; the K-Means and eviction work counters must
match exactly).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_harness.py \
        --sizes 1000 10000 --serve-banks 800 \
        --out BENCH_serve_hotpath.json \
        --check benchmarks/BENCH_serve_hotpath_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.vectorstore.flat import FlatIndex, SearchResult
from repro.vectorstore.ivf import IVFIndex, optimal_cluster_count
from repro.vectorstore.kmeans import KMeans

# The reference Lloyd loop lives with the tests that hold ``fit`` to it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.kmeans_reference import _reference_fit  # noqa: E402

DIM = 64
TOP_K = 5
N_TOPICS = 50
SCHEMA = "serve_hotpath/v3"
#: Pool sizes for the ``kmeans`` section: the seeded bank of ``bench_e2e``'s
#: serve workloads, and about where their last in-run retrain lands.
KMEANS_SIZES = (3_000, 6_000)


def clustered_vectors(n: int, dim: int = DIM, n_topics: int = N_TOPICS,
                      seed: int = 0) -> np.ndarray:
    """Topic-clustered unit vectors (the example cache's workload shape)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_topics, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs = centers[rng.integers(0, n_topics, size=n)]
    vecs = vecs + rng.normal(0.0, 0.15, size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def reference_search(index: IVFIndex, query: np.ndarray, k: int
                     ) -> list[SearchResult]:
    """The pre-PR trained-path loop: one Python dot product per candidate.

    Kept as the harness's speedup denominator (and mirrored as the
    correctness oracle in ``tests/test_vectorstore_equivalence.py``).
    """
    q = np.asarray(query, dtype=float).reshape(-1)
    q = q / float(np.linalg.norm(q))
    probe = np.argsort(-(index._centroids @ q))[:min(index.nprobe,
                                                     index.n_clusters)]
    candidates = [
        SearchResult(key, float(index.get_vector(key) @ q))
        for cluster in probe
        for key in index._blocks[cluster].keys
    ]
    candidates.sort(key=lambda r: r.score, reverse=True)
    return candidates[:k]


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _built_index(n: int, seed: int = 0, nprobe: int = 4
                 ) -> tuple[IVFIndex, float]:
    vectors = clustered_vectors(n, seed=seed)
    index = IVFIndex(dim=DIM, nprobe=nprobe, min_train_size=64, seed=seed)
    start = time.perf_counter()
    for i, vec in enumerate(vectors):
        index.add(i, vec)
    index.search(vectors[0], 1)  # force training inside the build timer
    return index, time.perf_counter() - start


def bench_search(n: int, seed: int = 0, n_queries: int = 200,
                 index: IVFIndex | None = None) -> dict:
    """Vectorized vs reference-loop single-query search at pool size ``n``."""
    if index is None:
        index, _ = _built_index(n, seed=seed)
    queries = clustered_vectors(n_queries, seed=seed + 1)
    # The reference loop is ~ms per query at large N; fewer repeats suffice.
    ref_queries = queries[: min(n_queries, 50)]

    t_vec = _best_of(lambda: [index.search(q, TOP_K) for q in queries])
    t_ref = _best_of(
        lambda: [reference_search(index, q, TOP_K) for q in ref_queries]
    )
    vec_us = t_vec / len(queries) * 1e6
    ref_us = t_ref / len(ref_queries) * 1e6

    flat = FlatIndex(DIM)
    for key in range(n):
        flat.add(key, index.get_vector(key))
    hits = sum(
        len({r.key for r in index.search(q, TOP_K)}
            & {r.key for r in flat.search(q, TOP_K)})
        for q in ref_queries
    )
    return {
        "n": n,
        "k_clusters": index.n_clusters,
        "nprobe": index.nprobe,
        "vectorized_us_per_query": vec_us,
        "reference_loop_us_per_query": ref_us,
        "speedup_vs_loop": ref_us / vec_us,
        "qps": 1e6 / vec_us,
        "recall_at_5_vs_flat": hits / (len(ref_queries) * TOP_K),
    }


def bench_churn(n: int, seed: int = 0,
                built: tuple[IVFIndex, float] | None = None) -> dict:
    """Index maintenance: build, trained add/remove ops, one full retrain.

    Mutates the passed index (the final timing forces a retrain), so run it
    after any bench sharing the same index.
    """
    index, build_s = built if built is not None else _built_index(n, seed=seed)
    build_trainings = index.trainings

    # Steady-state churn: trained add/remove pairs are pure O(1) block
    # maintenance (retraining only ever happens inside search, so none can
    # trigger mid-loop no matter how much churn accumulates).
    pairs = min(2000, max(10, n // 10))
    spare = clustered_vectors(pairs, seed=seed + 2)

    start = time.perf_counter()
    for i, vec in enumerate(spare):
        index.add(("churn", i), vec)
        index.remove(("churn", i))
    churn_s = time.perf_counter() - start

    # Force exactly one retrain on the next search and time it.
    index._churn = max(1, int(index.retrain_threshold * len(index)))
    start = time.perf_counter()
    index.search(spare[0], 1)
    retrain_s = time.perf_counter() - start
    assert index.trainings == build_trainings + 1
    return {
        "n": n,
        "build_s": build_s,
        "trainings_during_build": build_trainings,
        "add_remove_us_per_op": churn_s / (2 * pairs) * 1e6,
        "retrain_s": retrain_s,
    }


def bench_kmeans(n: int, seed: int = 0) -> dict:
    """One global-retrain ``KMeans.fit`` at pool size ``n`` (k = sqrt(n)).

    ``column_share`` is the fit's distance columns (seeding included) over
    the ``iterations * k`` a recompute-everything Lloyd loop pays after its
    own seeding pass: a count, so it repeats exactly run to run, and it
    reaches 1.0 if column skipping ever stops working.  The reference loop
    is timed in the same run as the speedup denominator and must return the
    same labels and centroids.
    """
    data = clustered_vectors(n, seed=seed).astype(np.float32)
    model = KMeans(n_clusters=optimal_cluster_count(n), seed=seed)
    result = model.fit(data)
    reference = _reference_fit(model, data)
    assert result.centroids.tobytes() == reference.centroids.tobytes()
    assert np.array_equal(result.labels, reference.labels)
    t_fit = _best_of(lambda: model.fit(data))
    t_ref = _best_of(lambda: _reference_fit(model, data), rounds=2)
    return {
        "n": n,
        "k_clusters": model.n_clusters,
        "iterations": result.iterations,
        "distance_columns": result.distance_columns,
        "column_share": result.distance_columns
        / (result.iterations * model.n_clusters),
        "kmeans_fit_ms": t_fit * 1e3,
        "reference_fit_ms": t_ref * 1e3,
        "kmeans_speedup_vs_reference": t_ref / t_fit,
    }


def bench_serve(bank: int = 800, n_requests: int = 300, warmup: int = 50,
                seed: int = 0) -> dict:
    """Steady-state single-request ``ICCacheService.serve`` throughput."""
    from harness import make_service

    scale = max(0.001, bank / 800_000)  # ms_marco: ~809 bank requests/0.001
    service, dataset = make_service("ms_marco", scale=scale, seed=seed,
                                    seed_limit=bank)
    seeded = len(service.cache)
    requests = dataset.online_requests(warmup + n_requests)
    for request in requests[:warmup]:
        service.serve(request, load=0.3)
    start = time.perf_counter()
    for request in requests[warmup:]:
        service.serve(request, load=0.3)
    elapsed = time.perf_counter() - start

    # Index-layer latency on the same warmed cache: end-to-end serve pays
    # for routing, simulated generation and learning updates on top of the
    # index, so the search number is reported alongside, not inferred.
    embeddings = np.stack([
        service.embedder.embed(r.text, r.latent) for r in requests[:32]
    ])
    t_search = _best_of(lambda: [
        service.cache.search(e, 12) for e in embeddings
    ])
    return {
        "bank_examples": seeded,            # pool size as configured/seeded
        "final_examples": len(service.cache),  # after online admissions
        "n_requests": n_requests,
        "us_per_request": elapsed / n_requests * 1e6,
        "qps": n_requests / elapsed,
        "index_search_us_per_query": t_search / 32 * 1e6,
    }


def bench_runtime(n_events: int = 100_000, n_requests: int = 5_000,
                  seed: int = 0) -> dict:
    """Event-loop dispatch and simulated-serving throughput.

    ``events_per_s`` times raw ``EventLoop`` schedule+dispatch of no-op
    events (the scheduler's floor); ``sim_requests_per_s`` times a full
    :meth:`ClusterSimulator.run` over a trivial always-small router, so the
    number includes queue/slot accounting, record construction, and the
    simulated generation model — the per-request overhead every serving
    figure pays before any IC-Cache work.
    """
    from repro.llm.zoo import get_model
    from repro.runtime import EventLoop
    from repro.serving.cluster import (
        ClusterConfig,
        ClusterSimulator,
        ModelDeployment,
    )
    from repro.workload.datasets import SyntheticDataset

    def drain_loop():
        loop = EventLoop()
        loop.on("tick", lambda event: None)
        for i in range(n_events):
            loop.schedule(float(i), "tick")
        loop.run()

    t_events = _best_of(drain_loop)

    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    requests = dataset.online_requests(n_requests)
    arrivals = [(0.05 * i, r) for i, r in enumerate(requests)]

    def simulate():
        sim = ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(get_model("gemma-2-2b", seed=seed),
                                replicas=8),
            ],
            gpu_budget=None,
        ))
        report = sim.run(arrivals, lambda request, s: ("gemma-2-2b", []))
        assert report.n == n_requests
        return report

    t_sim = _best_of(simulate)
    return {
        "n_events": n_events,
        "events_per_s": n_events / t_events,
        "n_sim_requests": n_requests,
        "sim_requests_per_s": n_requests / t_sim,
    }


def bench_persistence(bank: int = 800, n_requests: int = 100,
                      seed: int = 0) -> dict:
    """Snapshot save/restore throughput on a warmed service.

    The service serves ``n_requests`` first so the snapshot includes
    realistic learned state (posteriors, decode streams, admissions), then
    one save and one restore are timed (best of three, like every other
    bench).  Restore time includes service construction — that is what a
    warm restart actually pays.
    """
    import tempfile

    from harness import make_service
    from repro.core.service import ICCacheService

    scale = max(0.001, bank / 800_000)
    service, dataset = make_service("ms_marco", scale=scale, seed=seed,
                                    seed_limit=bank)
    for request in dataset.online_requests(n_requests):
        service.serve(request, load=0.3)

    with tempfile.TemporaryDirectory(prefix="bench_persist_") as tmpdir:
        path = Path(tmpdir) / "snapshot.json"
        t_save = _best_of(lambda: service.save(path))
        t_restore = _best_of(lambda: ICCacheService.restore(path))
        examples = len(service.cache)

        # Index-layer restore through the mmap sidecar, isolated: parse the
        # manifest once, then time only resolving the index section and
        # rebuilding the IVF structure over copy-on-write views.  End-to-end
        # restore on top of this pays JSON parsing and per-example Python
        # object construction, which dominate at every bank size.
        from repro.persistence.snapshot import SidecarReader, _decode
        from repro.vectorstore.sharded import ShardedIndex as _Sharded

        manifest = json.loads(path.read_text(encoding="utf-8"))
        raw_index = manifest["cache"]["index"]
        sharded = bool(manifest["cache"]["sharded"])

        def restore_index():
            reader = SidecarReader(
                path.parent / manifest["sidecar"]
            ) if manifest.get("sidecar") else None
            state = _decode(raw_index, reader)
            cls = _Sharded if sharded else IVFIndex
            return cls.from_state(state)

        t_index = _best_of(restore_index)
        return {
            "examples": examples,
            "snapshot_bytes": path.stat().st_size,
            "save_s": t_save,
            "restore_s": t_restore,
            "save_examples_per_s": examples / t_save,
            "restore_examples_per_s": examples / t_restore,
            "index_restore_s": t_index,
            "index_restore_vectors_per_s": examples / t_index,
        }


def _synthetic_pool(n: int, seed: int = 0):
    """An :class:`ExampleCache` of ``n`` synthetic examples, direct adds.

    No service in the loop: the lifecycle bench isolates the Example
    Manager's own hot paths, so the pool is built straight against the
    cache (which attaches every example to its columnar table).  Gain and
    access statistics are seeded so decay and the eviction knapsack have
    non-degenerate values to work over.
    """
    from repro.core.cache import ExampleCache
    from repro.core.example import Example
    from repro.workload.request import Request, TaskType

    cache = ExampleCache(dim=DIM)
    rng = np.random.default_rng(seed)
    for base, chunk in _scale_vectors(n, seed=seed):
        gains = rng.random(chunk.shape[0])
        accesses = rng.integers(0, 20, size=chunk.shape[0])
        for i in range(chunk.shape[0]):
            k = base + i
            request = Request(
                request_id=f"life-{k}",
                dataset="ms_marco",
                task=TaskType.QUESTION_ANSWERING,
                text=f"synthetic lifecycle request {k} probing topic "
                     f"{k % N_TOPICS} with a plausible sentence length",
                latent=chunk[i],
                topic_id=int(k % N_TOPICS),
                difficulty=0.5,
                prompt_tokens=24,
                target_output_tokens=48,
            )
            example = Example(
                example_id=f"ex-life-{k}",
                request=request,
                response_text=f"synthetic lifecycle response {k}: "
                              + "token " * 10,
                embedding=chunk[i],
                quality=0.7,
                source_model="gemma-2-27b",
                source_cost=1.0,
                created_at=0.0,
                access_count=int(accesses[i]),
            )
            example.offload_gain.update(float(gains[i]))
            example.gain_ema.update(float(gains[i]))
            cache.add(example)
    return cache


def bench_lifecycle(n: int, seed: int = 0, decay_ticks: int = 10) -> dict:
    """Example Manager lifecycle hot paths at pool size ``n``.

    Four numbers per pool size, all running over the columnar
    :class:`~repro.core.table.ExampleTable` behind the cache:

    * **decay** — :meth:`ExampleManager.apply_decay` with exactly one whole
      decay period elapsed per tick: one vectorized ``*= factor`` over the
      two gain columns (the maintenance tick's fixed cost);
    * **save/restore** — the cache-level columnar snapshot roundtrip:
      ``cache_state`` → sidecar encode → JSON string, then JSON parse →
      copy-on-write sidecar decode → ``restore_cache_state`` into a fresh
      cache.  This is the example-pool half of a warm restart (the
      ``persistence`` section measures the full service on top);
    * **evict one** — :meth:`ExampleManager.enforce_capacity` with the
      pool one byte over budget, the pass every admission pays on a full
      cache (``bench_e2e``'s ``lifecycle_churn``): one example goes, and
      only the low-density tail it could come from is ranked.
      ``rows_ranked_per_pass`` counts the rows handed to the ranking sort
      (a work count: same pool, same number, on any box);
      ``evict_one_speedup_vs_object`` is the same decision taken the
      per-object way in the same run — one ``KnapsackItem`` per example
      from its properties, ``solve_knapsack``, a kept-set scan — over
      this pass;
    * **evict** — one pass with the byte budget set to 70% of the pool,
      which is mostly the removals themselves.  The passes are destructive
      (they evict), so they run last.
    """
    import tempfile

    from repro.analysis import knapsack
    from repro.analysis.knapsack import KnapsackItem, solve_knapsack
    from repro.core.cache import ExampleCache
    from repro.core.config import ManagerConfig
    from repro.core.manager import ExampleManager
    from repro.persistence.snapshot import (
        SidecarBuilder,
        SidecarReader,
        _decode,
        _encode,
        cache_state,
        restore_cache_state,
    )
    from repro.utils.clock import SimClock

    cache = _synthetic_pool(n, seed=seed)
    clock = SimClock()
    manager = ExampleManager(cache, ManagerConfig(sanitize=False),
                             clock=clock)

    start = time.perf_counter()
    for _ in range(decay_ticks):
        clock.advance(manager.config.decay_period_s)
        manager.apply_decay()
    decay_s = time.perf_counter() - start

    builder = SidecarBuilder()
    start = time.perf_counter()
    doc = json.dumps(_encode(cache_state(cache), builder))
    blob = builder.tobytes()
    save_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="bench_lifecycle_") as tmpdir:
        bin_path = Path(tmpdir) / "pool.bin"
        bin_path.write_bytes(blob)

        def restore():
            state = _decode(json.loads(doc), SidecarReader(bin_path))
            fresh = ExampleCache(dim=DIM)
            restore_cache_state(fresh, state)
            assert len(fresh) == n

        t_restore = _best_of(restore)

    evictor = ExampleManager(cache, ManagerConfig(sanitize=False),
                             clock=clock)

    def object_pass():
        items = [KnapsackItem(key=ex.example_id, weight=ex.plaintext_bytes,
                              value=ex.offload_gain.value
                              * (1 + ex.access_count) + 1e-3)
                 for ex in cache]
        keep = solve_knapsack(items, cache.total_bytes - 1)
        return [item.key for item in items if item.key not in keep]

    def evict_one():
        evictor.config.capacity_bytes = cache.total_bytes - 1
        return evictor.enforce_capacity()

    # Rows ranked, counted where the ranking happens: the sort is the
    # kernel's one super-linear step.
    ranked_rows: list[int] = []
    rank = knapsack._rank

    def counting_rank(w, v):
        ranked_rows.append(w.size)
        return rank(w, v)

    would_evict = object_pass()
    knapsack._rank = counting_rank
    try:
        assert evict_one() == len(would_evict) >= 1
        assert not any(ex_id in cache for ex_id in would_evict), \
            "array pass and per-object pass must evict the same examples"
        t_object = _best_of(object_pass)
        t_evict_one = _best_of(evict_one)   # each round evicts once more
    finally:
        knapsack._rank = rank

    evictor.config.capacity_bytes = int(cache.total_bytes * 0.7)
    start = time.perf_counter()
    evicted = evictor.enforce_capacity()
    evict_s = time.perf_counter() - start
    assert evicted > 0, "eviction pass must actually run the knapsack"

    return {
        "n": n,
        "decay_ticks": decay_ticks,
        "decay_us_per_tick": decay_s / decay_ticks * 1e6,
        "snapshot_bytes": len(doc) + len(blob),
        "save_s": save_s,
        "save_examples_per_s": n / save_s,
        "restore_s": t_restore,
        "restore_examples_per_s": n / t_restore,
        "evict_one_us": t_evict_one * 1e6,
        "evict_one_speedup_vs_object": t_object / t_evict_one,
        "rows_ranked_per_pass": sum(ranked_rows) / len(ranked_rows),
        "evicted": evicted,
        "evict_us_per_pass": evict_s * 1e6,
    }


def bench_memory(index: IVFIndex) -> dict:
    """Resident bytes per vector, measured via ``nbytes`` on live storage.

    ``flat_bytes_per_vector`` counts the flat matrix (capacity included, as
    actually allocated); ``block_bytes_per_vector`` counts every cluster
    block the same way.  With float32 storage both sit near 4*dim plus
    doubling-growth slack; a silent float64 upcast doubles them.
    """
    n = max(1, len(index))
    flat_bytes = index._flat.nbytes
    block_bytes = sum(block.nbytes for block in index._blocks)
    return {
        "n": len(index),
        "dtype": str(np.dtype(index._flat.matrix.dtype)),
        "flat_bytes": flat_bytes,
        "block_bytes": block_bytes,
        "flat_bytes_per_vector": flat_bytes / n,
        "block_bytes_per_vector": block_bytes / n,
        "total_index_bytes": index.nbytes,
    }


def _scale_vectors(n: int, seed: int = 0, chunk: int = 100_000):
    """Yield (start, float32 chunk) batches of topic-clustered unit vectors.

    Chunked so an N=1M pool never materializes a float64 (n, dim) array
    (that alone would be 512 MB); each chunk is generated, normalized, and
    narrowed to float32 before the next one exists.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(N_TOPICS, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        vecs = centers[rng.integers(0, N_TOPICS, size=m)]
        vecs = vecs + rng.normal(0.0, 0.15, size=(m, DIM))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        yield start, vecs.astype(np.float32)


def bench_scale(n: int = 1_000_000, seed: int = 0, n_queries: int = 200,
                recall_queries: int = 50, maintenance_ticks: int = 5) -> dict:
    """The N=1M story: build, two-pass search, retrain amortization.

    Builds one IVF index with the large-N configuration (two-pass int8
    coarse scoring on, incremental retrain on — both size-gated exactly as
    the service config would gate them), then measures:

    * search latency with two-pass ON and (for the same queries) OFF;
    * recall@5 of the two-pass path against exact flat search;
    * steady-state maintenance: ``maintenance_ticks`` forced retrains with
      1% churn between them — at this size every one takes the incremental
      split/merge path, and the mean is the amortized per-tick cost the
      acceptance gate reads.
    """
    index = IVFIndex(dim=DIM, nprobe=8, min_train_size=64, seed=seed,
                     two_pass_min_n=100_000, rescore_depth=64,
                     incremental_min_n=10_000)
    start = time.perf_counter()
    for base, chunk in _scale_vectors(n, seed=seed):
        for i in range(chunk.shape[0]):
            index.add(base + i, chunk[i])
    index.search(index.get_vector(0), 1)  # settle any pending retrain
    build_s = time.perf_counter() - start

    queries = clustered_vectors(n_queries, seed=seed + 1)
    assert index.two_pass_active
    t_two_pass = _best_of(lambda: [index.search(q, TOP_K) for q in queries])
    index.two_pass_min_n = None  # same index, exact single-pass
    t_single = _best_of(lambda: [index.search(q, TOP_K) for q in queries])
    index.two_pass_min_n = 100_000

    # Exact flat baseline for recall@5, on a subsample (flat search at N=1M
    # is ~100 ms/query; 50 queries keep the nightly run bounded).
    flat = FlatIndex(DIM)
    matrix = index._flat.matrix
    flat._vectors = np.array(matrix, dtype=np.float32)
    flat._keys = list(index._flat.keys)
    flat._key_to_row = {key: row for row, key in enumerate(flat._keys)}
    hits = sum(
        len({r.key for r in index.search(q, TOP_K)}
            & {r.key for r in flat.search(q, TOP_K)})
        for q in queries[:recall_queries]
    )

    # Steady-state maintenance: churn 1% of the pool, force a retrain, and
    # time it; repeat.  At this size the retrain is always incremental.
    churn = max(1, n // 100)
    spare = clustered_vectors(churn, seed=seed + 2).astype(np.float32)
    tick_times = []
    trainings_before = index.trainings
    for tick in range(maintenance_ticks):
        for i in range(churn):
            index.add(("churn", tick, i), spare[i])
            index.remove(("churn", tick, i))
        start = time.perf_counter()
        assert index.retrain()
        tick_times.append(time.perf_counter() - start)
    assert index.trainings == trainings_before + maintenance_ticks

    return {
        "n": n,
        "k_clusters": index.n_clusters,
        "nprobe": index.nprobe,
        "build_s": build_s,
        "trainings_during_build": trainings_before,
        "two_pass_us_per_query": t_two_pass / n_queries * 1e6,
        "single_pass_us_per_query": t_single / n_queries * 1e6,
        "recall_at_5_vs_flat": hits / (recall_queries * TOP_K),
        "retrain_ticks": maintenance_ticks,
        "retrain_s_per_tick": sum(tick_times) / len(tick_times),
        "retrain_s_worst_tick": max(tick_times),
        "memory": bench_memory(index),
    }


def run(sizes: list[int], serve_banks: list[int] | None = None,
        out_path: str | Path | None = None, full: bool = False,
        lifecycle_sizes: list[int] | None = None) -> dict:
    """Run the full harness and (optionally) write the BENCH artifact."""
    serve_banks = serve_banks if serve_banks else [800]
    lifecycle_sizes = (lifecycle_sizes if lifecycle_sizes
                       else [10_000, 50_000])
    results = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "search": {},
        "churn": {},
        "kmeans": {str(n): bench_kmeans(n) for n in KMEANS_SIZES},
        "memory": {},
        "serve": {str(bank): bench_serve(bank=bank) for bank in serve_banks},
        "runtime": bench_runtime(),
        "persistence": bench_persistence(bank=min(serve_banks)),
        "lifecycle": {str(n): bench_lifecycle(n) for n in lifecycle_sizes},
    }
    for n in sizes:
        # One build (and one K-Means train) per size, shared by the benches;
        # memory reads before churn (which retrains the index it is handed),
        # so the numbers describe the layout search just ran over.
        built = _built_index(n)
        results["search"][str(n)] = bench_search(n, index=built[0])
        results["memory"][str(n)] = bench_memory(built[0])
        results["churn"][str(n)] = bench_churn(n, built=built)
    if full:
        results["scale"] = bench_scale()
        # The N=1M pool: fewer decay ticks — each is one vectorized multiply
        # over 1M-row columns, and the pool build dominates the wall clock.
        results["scale"]["pool"] = bench_lifecycle(1_000_000, decay_ticks=3)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(results, indent=2) + "\n",
                                  encoding="utf-8")
    return results


def check_against_baseline(results: dict, baseline: dict,
                           max_regression: float = 0.30) -> list[str]:
    """Regression failures versus a recorded baseline (empty list = pass).

    Gates on single-request serve throughput (the ISSUE's headline number)
    plus vectorized search throughput for every pool size both runs cover.
    """
    failures = []
    floor = 1.0 - max_regression
    ceiling = 1.0 + max_regression

    base_serve = baseline.get("serve", {})
    if "qps" in base_serve:  # pre-v2 baseline: one unkeyed serve row
        base_serve = {"800": base_serve}
    for bank, base in base_serve.items():
        current = results.get("serve", {}).get(bank)
        if current is None or not base.get("qps"):
            continue
        if current["qps"] < floor * base["qps"]:
            failures.append(
                f"serve throughput at bank={bank} regressed: "
                f"{current['qps']:.0f} qps < {floor:.0%} of baseline "
                f"{base['qps']:.0f} qps"
            )
    for n, base in baseline.get("search", {}).items():
        current = results.get("search", {}).get(n)
        if current is None or not base.get("qps"):
            continue
        if current["qps"] < floor * base["qps"]:
            failures.append(
                f"search qps at N={n} regressed: {current['qps']:.0f} < "
                f"{floor:.0%} of baseline {base['qps']:.0f}"
            )
    base_runtime = baseline.get("runtime", {})
    for key, label in (("events_per_s", "event-loop dispatch"),
                       ("sim_requests_per_s", "simulated serving")):
        base_val = base_runtime.get(key)
        if not base_val:
            continue
        got = results.get("runtime", {}).get(key, 0.0)
        if got < floor * base_val:
            failures.append(
                f"runtime {label} regressed: {got:.0f}/s < "
                f"{floor:.0%} of baseline {base_val:.0f}/s"
            )
    base_persist = baseline.get("persistence", {})
    for key, label in (("save_examples_per_s", "snapshot save"),
                       ("restore_examples_per_s", "snapshot restore")):
        base_val = base_persist.get(key)
        if not base_val:
            continue  # pre-persistence baselines simply skip this gate
        got = results.get("persistence", {}).get(key, 0.0)
        if got < floor * base_val:
            failures.append(
                f"persistence {label} regressed: {got:.0f} ex/s < "
                f"{floor:.0%} of baseline {base_val:.0f} ex/s"
            )
    # Lifecycle: decay and eviction are *times* (bigger = regression),
    # restore is a throughput floor like the persistence rows.
    for n, base in baseline.get("lifecycle", {}).items():
        current = results.get("lifecycle", {}).get(n)
        if current is None:
            continue
        for key, label in (("decay_us_per_tick", "lifecycle decay tick"),
                           ("evict_one_us", "lifecycle evict-one pass"),
                           ("evict_us_per_pass", "lifecycle eviction pass")):
            base_val = base.get(key)
            if not base_val:
                continue
            got = current.get(key, 0.0)
            if got > ceiling * base_val:
                failures.append(
                    f"{label} at N={n} regressed: {got:.0f} us > "
                    f"{ceiling:.0%} of baseline {base_val:.0f} us"
                )
        base_val = base.get("restore_examples_per_s")
        if base_val:
            got = current.get("restore_examples_per_s", 0.0)
            if got < floor * base_val:
                failures.append(
                    f"lifecycle restore at N={n} regressed: {got:.0f} ex/s "
                    f"< {floor:.0%} of baseline {base_val:.0f} ex/s"
                )
        # A count, like the K-Means ones below: it moves only if the
        # evict-one pass ranks a different part of the pool.
        key = "rows_ranked_per_pass"
        if key in base and current.get(key) != base[key]:
            failures.append(
                f"lifecycle evict-one {key} at N={n} changed: "
                f"{current.get(key)} != baseline {base[key]}"
            )
    # Retrain amortization: a *time*, so regression means slower, not lower.
    for n, base in baseline.get("churn", {}).items():
        current = results.get("churn", {}).get(n)
        base_val = base.get("retrain_s")
        if current is None or not base_val:
            continue
        if current["retrain_s"] > ceiling * base_val:
            failures.append(
                f"retrain at N={n} regressed: {current['retrain_s']:.3f} s > "
                f"{ceiling:.0%} of baseline {base_val:.3f} s"
            )
    # K-Means fit: the time like any other, the work counters exactly — a
    # count that moves means the fit did different work, not slower work.
    for n, base in baseline.get("kmeans", {}).items():
        current = results.get("kmeans", {}).get(n)
        if current is None:
            continue
        for key in ("iterations", "distance_columns"):
            if key in base and current[key] != base[key]:
                failures.append(
                    f"kmeans {key} at N={n} changed: {current[key]} != "
                    f"baseline {base[key]}"
                )
        base_val = base.get("kmeans_fit_ms")
        if base_val and current["kmeans_fit_ms"] > ceiling * base_val:
            failures.append(
                f"kmeans fit at N={n} regressed: "
                f"{current['kmeans_fit_ms']:.0f} ms > {ceiling:.0%} of "
                f"baseline {base_val:.0f} ms"
            )
    base_scale = baseline.get("scale")
    if base_scale and results.get("scale"):
        got_scale = results["scale"]
        base_val = base_scale.get("retrain_s_per_tick")
        if base_val and got_scale["retrain_s_per_tick"] > ceiling * base_val:
            failures.append(
                f"N=1M retrain amortization regressed: "
                f"{got_scale['retrain_s_per_tick']:.3f} s/tick > "
                f"{ceiling:.0%} of baseline {base_val:.3f} s/tick"
            )
        base_val = base_scale.get("two_pass_us_per_query")
        if base_val and got_scale["two_pass_us_per_query"] \
                > ceiling * base_val:
            failures.append(
                f"N=1M two-pass search regressed: "
                f"{got_scale['two_pass_us_per_query']:.0f} us/q > "
                f"{ceiling:.0%} of baseline {base_val:.0f} us/q"
            )
        base_pool = base_scale.get("pool")
        got_pool = got_scale.get("pool")
        if base_pool and got_pool:
            base_val = base_pool.get("restore_examples_per_s")
            if base_val and got_pool.get("restore_examples_per_s", 0.0) \
                    < floor * base_val:
                failures.append(
                    f"N=1M pool restore regressed: "
                    f"{got_pool['restore_examples_per_s']:.0f} ex/s < "
                    f"{floor:.0%} of baseline {base_val:.0f} ex/s"
                )
            base_val = base_pool.get("decay_us_per_tick")
            if base_val and got_pool.get("decay_us_per_tick", 0.0) \
                    > ceiling * base_val:
                failures.append(
                    f"N=1M maintenance decay tick regressed: "
                    f"{got_pool['decay_us_per_tick']:.0f} us > "
                    f"{ceiling:.0%} of baseline {base_val:.0f} us"
                )
    return failures


def run_baseline_gate(results: dict, baseline_path: str | Path,
                      max_regression: float = 0.30) -> int:
    """Gate ``results`` against a recorded baseline file; returns exit code.

    A missing baseline is **not** a pass: the gate prints an explicit
    "no baseline, gate skipped" warning (a fresh checkout or a renamed
    artifact should be visible in CI logs, not silently green) and returns
    0 without comparing anything.  With a baseline present, regressions
    print as ``REGRESSION:`` lines and the gate returns 1.
    """
    baseline_path = Path(baseline_path)
    if not baseline_path.is_file():
        print(f"WARNING: no baseline at {baseline_path}, gate skipped")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = check_against_baseline(results, baseline, max_regression)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"baseline check passed ({baseline_path})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1_000, 10_000, 50_000],
                        help="example-pool sizes N for the index benches")
    parser.add_argument("--serve-banks", type=int, nargs="+",
                        default=[800, 50_000],
                        help="seeded example-bank sizes for the serve bench")
    parser.add_argument("--lifecycle-sizes", type=int, nargs="+",
                        default=[10_000, 50_000],
                        help="synthetic pool sizes for the lifecycle bench")
    parser.add_argument("--full", action="store_true",
                        help="also run the N=1M scale bench "
                             "(REPRO_PERF_FULL=1 implies this)")
    parser.add_argument("--out", default="BENCH_serve_hotpath.json",
                        help="output artifact path")
    parser.add_argument("--check", metavar="BASELINE",
                        help="baseline JSON to gate regressions against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional throughput drop vs baseline")
    args = parser.parse_args(argv)
    full = args.full or os.environ.get("REPRO_PERF_FULL") == "1"

    results = run(args.sizes, serve_banks=args.serve_banks,
                  out_path=args.out, full=full,
                  lifecycle_sizes=args.lifecycle_sizes)
    for n, row in results["search"].items():
        print(f"search  N={n:>6}: {row['vectorized_us_per_query']:8.1f} us/q "
              f"({row['qps']:8.0f} qps), {row['speedup_vs_loop']:5.1f}x vs "
              f"loop, recall@5={row['recall_at_5_vs_flat']:.3f}")
    for n, row in results["memory"].items():
        print(f"memory  N={n:>6}: {row['dtype']}, flat "
              f"{row['flat_bytes_per_vector']:6.1f} B/vec, blocks "
              f"{row['block_bytes_per_vector']:6.1f} B/vec, total "
              f"{row['total_index_bytes'] / 2**20:7.1f} MiB")
    for n, row in results["churn"].items():
        print(f"churn   N={n:>6}: build {row['build_s']:6.2f}s "
              f"({row['trainings_during_build']} trains), add/remove "
              f"{row['add_remove_us_per_op']:6.1f} us/op, retrain "
              f"{row['retrain_s']:6.2f}s")
    for n, row in results["kmeans"].items():
        print(f"kmeans  N={n:>6}: fit {row['kmeans_fit_ms']:7.1f} ms "
              f"({row['kmeans_speedup_vs_reference']:.1f}x vs reference "
              f"loop), {row['iterations']} iterations, "
              f"{row['distance_columns']} distance columns "
              f"({row['column_share']:.2f} of iterations x k)")
    for bank, serve in results["serve"].items():
        print(f"serve   bank={serve['bank_examples']}: "
              f"{serve['us_per_request']:.0f} us/request "
              f"({serve['qps']:.0f} qps), index search "
              f"{serve['index_search_us_per_query']:.0f} us/q")
    runtime = results["runtime"]
    print(f"runtime events: {runtime['events_per_s']:,.0f}/s "
          f"({runtime['n_events']} no-op dispatches), sim serving: "
          f"{runtime['sim_requests_per_s']:,.0f} req/s "
          f"({runtime['n_sim_requests']} requests)")
    for n, row in results["lifecycle"].items():
        print(f"lifecyc N={n:>7}: decay {row['decay_us_per_tick']:8.1f} "
              f"us/tick, evict one {row['evict_one_us']:6.0f} us "
              f"({row['evict_one_speedup_vs_object']:.0f}x vs per-object, "
              f"{row['rows_ranked_per_pass']:g} rows ranked/pass), "
              f"evict {row['evict_us_per_pass'] / 1e3:8.1f} ms/pass "
              f"({row['evicted']} evicted), restore "
              f"{row['restore_examples_per_s']:,.0f} ex/s")
    persist = results["persistence"]
    print(f"persist snapshot: {persist['snapshot_bytes'] / 1024:.0f} KiB, "
          f"save {persist['save_s'] * 1e3:.0f} ms "
          f"({persist['save_examples_per_s']:,.0f} ex/s), restore "
          f"{persist['restore_s'] * 1e3:.0f} ms "
          f"({persist['restore_examples_per_s']:,.0f} ex/s), index via "
          f"mmap {persist['index_restore_vectors_per_s']:,.0f} vec/s")
    scale = results.get("scale")
    if scale:
        print(f"scale   N={scale['n']:,}: build {scale['build_s']:.0f}s "
              f"({scale['k_clusters']} clusters), two-pass "
              f"{scale['two_pass_us_per_query']:.0f} us/q vs single "
              f"{scale['single_pass_us_per_query']:.0f} us/q, "
              f"recall@5={scale['recall_at_5_vs_flat']:.3f}, retrain "
              f"{scale['retrain_s_per_tick'] * 1e3:.0f} ms/tick "
              f"(worst {scale['retrain_s_worst_tick'] * 1e3:.0f} ms)")
        pool = scale.get("pool")
        if pool:
            print(f"scale   pool N={pool['n']:,}: decay "
                  f"{pool['decay_us_per_tick'] / 1e3:.1f} ms/tick, evict "
                  f"{pool['evict_us_per_pass'] / 1e6:.1f} s/pass "
                  f"({pool['evicted']} evicted), restore "
                  f"{pool['restore_examples_per_s']:,.0f} ex/s")
    print(f"wrote {args.out}")

    if args.check:
        return run_baseline_gate(results, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
