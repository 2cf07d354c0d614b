"""Serve hot-path performance harness: work counters and in-run ratios.

``bench_e2e/`` is the repo's benchmark: it owns every end-to-end and
per-layer wall-clock number, host-speed corrected, and gates them.  This
harness keeps only what that benchmark cannot give:

* **work counters, gated exactly** — counts repeat run to run on any box, so
  ``--check`` fails when one moves in either direction: the K-Means fit's
  ``iterations`` and ``distance_columns`` at N=3k/6k (where every
  ``bench_e2e`` retrain runs), the evict-one pass's
  ``rows_ranked_per_pass``, and the per-request floor — calls one ``serve``
  issues from ``src/repro/``, generators it mints, proxy solves it pays
  (``floor``; the call count is exact per interpreter minor version, and the
  recorded one is 3.11's), the same floor for a request served through
  ``serve_batch`` in 16s plus what its stage 1 materialises and how many of
  its dedupe probes score blocks again (``batch``), the journal's share of
  a churned request —
  calls issued while ``WriteAheadLog.record`` or ``flush`` runs, ``write``s
  issued, frames and bytes appended (``journal``), the generators one
  sample of a maintenance tick's replay pass mints and the calls it issues
  (``replay``), and what
  the gateway's transport spends on one
  loopback ``POST /serve`` — event-loop iterations, futures, timer handles,
  socket sends, calls issued from ``src/repro/gateway/`` and ``asyncio/``
  (``gateway``);
* **in-run ratios against a reference** — both sides timed in the same
  process, so box speed cancels: vectorized :meth:`IVFIndex.search` over the
  per-key loop (``tests/search_reference.py``), ``KMeans.fit`` over the
  reference Lloyd loop (``tests/kmeans_reference.py``, same labels and
  centroids asserted), the one-over-budget eviction pass over the same
  decision taken per object; ``benchmarks/test_perf_serve_hotpath.py``
  asserts their floors;
* **scale rows** (``--full`` or ``REPRO_PERF_FULL=1``) — N=1M, printed and
  recorded, never gated: build, single-query search and recall@5 against
  exact flat search, incremental-retrain amortization per maintenance
  tick, resident index bytes per vector, and the lifecycle bench at a
  1M-example pool.

The remaining rows (index churn, decay tick, 30%-over eviction pass,
cache-level snapshot roundtrip) are printed for the record.  Results go to
``BENCH_serve_hotpath.json``; no timing is ever compared against a file.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_harness.py \
        --sizes 1000 10000 --out BENCH_serve_hotpath.json \
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

from repro.utils import rng as rng_module
from repro.vectorstore import ivf
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.ivf import IVFIndex, optimal_cluster_count
from repro.vectorstore.kmeans import KMeans

# The references live with the tests that hold the fast paths to them
# (numpy-only modules: the CI jobs that run this install no test extras).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import ema_reference  # noqa: E402
from tests.kmeans_reference import _reference_fit  # noqa: E402
from tests.knapsack_reference import (  # noqa: E402
    KnapsackItem,
    solve_knapsack,
)
from tests.clustered_pool import (  # noqa: E402
    clustered_chunks,
    clustered_vectors,
)
from tests.search_reference import reference_search  # noqa: E402

DIM = 64
TOP_K = 5
N_TOPICS = 50
SCHEMA = "serve_hotpath/v4"
#: Pool sizes for the ``kmeans`` section: the seeded bank of ``bench_e2e``'s
#: serve workloads, and about where their last in-run retrain lands.
KMEANS_SIZES = (3_000, 6_000)
#: Bank of the ``floor`` section: ``bench_e2e``'s ``serve_repeat`` bank.
FLOOR_BANK = 3_000
#: Bank and compaction size of the ``journal`` section: ``bench_e2e``'s
#: ``lifecycle_churn``.
JOURNAL_BANK = 1_500
JOURNAL_COMPACT_AFTER_BYTES = 2_000_000
#: Bank of the ``gateway`` section: ``bench_e2e``'s ``gateway_serve`` bank.
GATEWAY_BANK = 1_000


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _built_index(n: int, seed: int = 0, nprobe: int = 4
                 ) -> tuple[IVFIndex, float]:
    vectors = clustered_vectors(n, DIM, N_TOPICS, seed=seed)
    index = IVFIndex(dim=DIM, nprobe=nprobe, seed=seed)
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
    queries = clustered_vectors(n_queries, DIM, N_TOPICS, seed=seed + 1)
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
        len({r.key for r in index.search(q, TOP_K)} & {r.key for r in truth})
        for q, truth in zip(ref_queries,
                            flat.search_batch(ref_queries, TOP_K))
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
    spare = clustered_vectors(pairs, DIM, N_TOPICS, seed=seed + 2)

    start = time.perf_counter()
    for i, vec in enumerate(spare):
        index.add(("churn", i), vec)
        index.remove(("churn", i))
    churn_s = time.perf_counter() - start

    # Force exactly one retrain on the next search and time it.
    index._churn = max(1, int(ivf.RETRAIN_THRESHOLD * len(index)))
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
    data = clustered_vectors(n, DIM, N_TOPICS, seed=seed).astype(np.float32)
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


def _synthetic_pool(n: int, seed: int = 0):
    """An :class:`ExampleCache` of ``n`` synthetic examples, direct adds.

    No service in the loop: the lifecycle bench isolates the Example
    Manager's own hot paths, so the pool is built straight against the
    cache (which attaches every example to its columnar table).  Gain and
    access statistics are seeded so decay and the eviction knapsack have
    non-degenerate values to work over: one observation of each gain
    stream, written into the row with ``ExampleTable.write_journal_row``.
    """
    from repro.core.cache import ExampleCache
    from repro.core.example import Example
    from repro.workload.request import Request, TaskType

    cache = ExampleCache(dim=DIM)
    rng = np.random.default_rng(seed)
    for base, chunk in clustered_chunks(n, DIM, N_TOPICS, seed=seed):
        chunk = chunk.astype(np.float32)
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
            ema_reference.update(example, offload_gain=float(gains[i]),
                                 gain_ema=float(gains[i]))
            cache.add(example)
    return cache


def _offload_gain(example) -> float:
    """An example's offload-gain value read from its row the way a scalar
    property reads one: what the per-object eviction path pays for it."""
    d = example.__dict__
    return float(d["_table"]._cols["offload_gain__value"][d["_row"]])


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
      cache.  This is the example-pool half of a warm restart;
    * **evict one** — :meth:`ExampleManager.enforce_capacity` with the
      pool one byte over budget, the pass every admission pays on a full
      cache (``bench_e2e``'s ``lifecycle_churn``): one example goes, and
      the kernel proves it is the greedy's one rejection without ranking.
      ``rows_ranked_per_pass`` counts the rows handed to the ranking sort
      over the passes run (a work count: same pool, same number, on any
      box; 0 while the proof holds);
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
    from repro.core.cache import ExampleCache
    from repro.core.config import ManagerConfig
    from repro.core.manager import DECAY_PERIOD_S, ExampleManager
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
        clock.advance(DECAY_PERIOD_S)
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
                              value=_offload_gain(ex)
                              * (1 + ex.access_count) + 1e-3)
                 for ex in cache]
        keep = solve_knapsack(items, cache.total_bytes - 1)
        return [item.key for item in items if item.key not in keep]

    def evict_one():
        evictor.config.capacity_bytes = cache.total_bytes - 1
        return evictor.enforce_capacity()

    # Rows ranked, counted where the ranking happens (the sort is the
    # kernel's one super-linear step), over the passes run.
    counts = {"ranked_rows": 0, "passes": 0}
    rank = knapsack._rank

    def counting_rank(w, v):
        counts["ranked_rows"] += w.size
        return rank(w, v)

    def counted_evict_one():
        counts["passes"] += 1
        return evict_one()

    would_evict = object_pass()
    knapsack._rank = counting_rank
    try:
        assert counted_evict_one() == len(would_evict) >= 1
        assert not any(ex_id in cache for ex_id in would_evict), \
            "array pass and per-object pass must evict the same examples"
        t_object = _best_of(object_pass)
        t_evict_one = _best_of(counted_evict_one)   # each evicts once more
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
        "rows_ranked_per_pass": counts["ranked_rows"] / counts["passes"],
        "evicted": evicted,
        "evict_us_per_pass": evict_s * 1e6,
    }


def _floor_stream(dataset, bank: list, n: int, seed: int = 0,
                  reask_share: float = 0.8) -> list:
    """``n`` requests, ``reask_share`` of them verbatim re-asks of banked
    requests under a fresh id (``bench_e2e``'s ``serve_repeat`` mix)."""
    import dataclasses

    from repro.utils.rng import make_rng, stable_hash

    is_reask = make_rng(stable_hash("bench_e2e", "mix", seed)
                        ).random(n) < reask_share
    picks = make_rng(stable_hash("bench_e2e", "pick", seed)
                     ).integers(0, len(bank), size=n)
    fresh = iter(dataset.generate_requests(int((~is_reask).sum()),
                                           split=f"online-s{seed}"))
    return [
        dataclasses.replace(bank[pick], metadata={},
                            request_id=f"re{i}-{bank[pick].request_id}")
        if again else next(fresh)
        for i, (again, pick) in enumerate(zip(is_reask, picks))
    ]


def _seeded_service(bank_size: int, n_requests: int):
    """``bench_e2e``'s ``serve_repeat`` / ``serve_batch16`` set-up at seed 0:
    the service over its seeded bank, and ``n_requests`` of the mix."""
    from repro import ICCacheConfig, ICCacheService
    from repro.core.config import ManagerConfig
    from repro.workload import SyntheticDataset

    dataset = SyntheticDataset("ms_marco", scale=bank_size / 808_731, seed=0)
    bank = dataset.example_bank_requests()[:bank_size]
    stream = _floor_stream(dataset, bank, n_requests)
    service = ICCacheService(ICCacheConfig(
        seed=0, manager=ManagerConfig(sanitize=True)))
    service.seed_cache(bank)
    return service, stream


def _package_root() -> str:
    """``.../src/repro/`` — the prefix of every file the call counters
    attribute a call to."""
    import repro

    return str(Path(repro.__file__).resolve().parent) + os.sep


def _issued_by(package: str, frame, event: str) -> bool:
    """Whether a profile event is a call issued from code under ``package``:
    a ``call`` whose *caller's* frame, or a ``c_call`` whose own frame, is
    there — whatever the callee then does inside numpy or the library."""
    if event == "call":
        frame = frame.f_back
    elif event != "c_call":
        return False
    return frame is not None and frame.f_code.co_filename.startswith(package)


#: The two places a generator is built: per call, and from a seeding pass.
_MINTING = (rng_module.make_rng.__code__, rng_module.rng_from_words.__code__)


def _seeding_pass(frame, event: str, arg) -> bool:
    """Whether a profile event ends a non-empty ``seed_words`` pass."""
    return event == "return" and frame.f_code is rng_module.seed_words.__code__ \
        and arg is not None and len(arg) > 0


def bench_floor(bank_size: int = FLOOR_BANK, warmup: int = 208,
                counted: int = 400) -> dict:
    """Work one ``ICCacheService.serve`` issues, as exact counts.

    The per-request floor is call overhead spread over a dozen layers, so
    its work counter is calls: over ``counted`` serves of ``bench_e2e``'s
    ``serve_repeat`` mix (seed 0, same bank and config), a ``sys.setprofile``
    hook counts every ``call`` event whose *caller's* frame, and every
    ``c_call`` event whose own frame, is code under ``src/repro/`` — calls
    the package issues, whatever the callee then does inside numpy or the
    standard library.  Three of those calls are also counted by name:
    generators minted (``make_rng``, which ``spawn_rng`` mints through, and
    ``rng_from_words``, which a batch's seeding pass mints through: the
    simulator's fixed per-request cost), ``solve`` calls issued by the
    helpfulness proxy, and ``HelpfulnessProxy.score_batch`` calls (stage 2:
    one per decision batch, and a ``serve`` is a batch of one).
    No index retrain may land in the counted window (asserted): a K-Means
    fit is thousands of calls that belong to no request.
    """
    from repro.core import proxy as proxy_module

    service, stream = _seeded_service(bank_size, warmup + counted)
    for request in stream[:warmup]:
        service.serve(request)

    package = _package_root()
    proxy_file = proxy_module.__file__
    scoring = proxy_module.HelpfulnessProxy.score_batch.__code__
    counts = {"calls": 0, "minted": 0, "solves": 0, "scored": 0}

    def hook(frame, event, arg):
        if not _issued_by(package, frame, event):
            return
        counts["calls"] += 1
        if event == "call":
            code = frame.f_code
            if code in _MINTING:
                counts["minted"] += 1
            elif code is scoring:
                counts["scored"] += 1
            elif code.co_name == "solve" and \
                    frame.f_back.f_code.co_filename == proxy_file:
                counts["solves"] += 1

    index = service.cache._index
    trainings = index.trainings
    serve = service.serve
    sys.setprofile(hook)
    try:
        for request in stream[warmup:]:
            serve(request)
    finally:
        sys.setprofile(None)
    assert index.trainings == trainings, \
        "an index retrain landed in the counted window"
    return {
        "n": bank_size,
        "requests": counted,
        "calls_per_request": counts["calls"] / counted,
        "generators_minted_per_request": counts["minted"] / counted,
        "proxy_solves_per_request": counts["solves"] / counted,
        "score_batch_calls_per_request": counts["scored"] / counted,
    }


def bench_batch(bank_size: int = FLOOR_BANK, warmup: int = 208,
                counted: int = 400, batch: int = 16) -> dict:
    """Work one request costs when served by ``serve_batch``, as exact counts.

    ``bench_e2e``'s ``serve_batch16`` rebuilt here — :func:`bench_floor`'s
    bank, config and stream, served ``batch`` at a time — and ``counted``
    requests after ``warmup`` under the same ``sys.setprofile`` hook
    definition of a call.  Three more counts say what the batched stages do:
    ``score_batch_calls_per_request`` is stage 2's proxy calls (one per
    decision batch: ``1 / batch``), ``results_materialised_per_request`` is the
    ``SearchResult``s the shared finish builds (its return values' lengths:
    ``pre_k`` per stage-1 query, one per rescored probe — the tail it
    replaced built ``nprobe x pre_k`` and sorted them), and
    ``rescored_probes_per_request`` is the ``search(q, 1)`` calls that reach
    ``search_batch``, i.e. found no standing receipt and scored their blocks
    again (1.0 when the batched kernel filed none).  No index retrain may land in
    the counted window (asserted).  ``generators_minted_per_request``
    counts :func:`bench_floor`'s two mint sites, and
    ``seeding_passes_per_request`` the non-empty ``seed_words`` passes the
    batches run to seed those generators ahead of their draws.
    """
    from repro.core.proxy import HelpfulnessProxy
    from repro.vectorstore.flat import finish

    assert warmup % batch == 0 and counted % batch == 0
    service, stream = _seeded_service(bank_size, warmup + counted)
    for start in range(0, warmup, batch):
        service.serve_batch(stream[start:start + batch])

    package = _package_root()
    finish_code = finish.__code__
    search_code = IVFIndex.search.__code__
    batch_code = IVFIndex.search_batch.__code__
    scoring = HelpfulnessProxy.score_batch.__code__
    counts = {"calls": 0, "results": 0, "rescored": 0, "scored": 0,
              "minted": 0, "passes": 0}

    def hook(frame, event, arg):
        if _issued_by(package, frame, event):
            counts["calls"] += 1
            caller = frame.f_back
            if event == "call" and frame.f_code is batch_code and \
                    caller.f_code is search_code and caller.f_locals["k"] == 1:
                counts["rescored"] += 1
            elif event == "call" and frame.f_code is scoring:
                counts["scored"] += 1
            elif event == "call" and frame.f_code in _MINTING:
                counts["minted"] += 1
        elif event == "return" and frame.f_code is finish_code \
                and arg is not None:
            counts["results"] += len(arg)
        elif _seeding_pass(frame, event, arg):
            counts["passes"] += 1

    index = service.cache._index
    trainings = index.trainings
    serve_batch = service.serve_batch
    sys.setprofile(hook)
    try:
        for start in range(warmup, warmup + counted, batch):
            serve_batch(stream[start:start + batch])
    finally:
        sys.setprofile(None)
    assert index.trainings == trainings, \
        "an index retrain landed in the counted window"
    return {
        "n": bank_size,
        "requests": counted,
        "batch": batch,
        "calls_per_request": counts["calls"] / counted,
        "results_materialised_per_request": counts["results"] / counted,
        "rescored_probes_per_request": counts["rescored"] / counted,
        "score_batch_calls_per_request": counts["scored"] / counted,
        "generators_minted_per_request": counts["minted"] / counted,
        "seeding_passes_per_request": counts["passes"] / counted,
    }


def _churn_service(bank_size: int, n_requests: int):
    """``bench_e2e``'s ``lifecycle_churn`` seed-0 inputs: all-fresh requests,
    ``sanitize=True``, capacity = the seeded bank's bytes."""
    from repro import ICCacheConfig, ICCacheService
    from repro.core.config import ManagerConfig
    from repro.workload import SyntheticDataset

    dataset = SyntheticDataset("ms_marco", scale=bank_size / 808_731, seed=0)
    bank = dataset.example_bank_requests()[:bank_size]
    stream = _floor_stream(dataset, bank, n_requests, reask_share=0.0)
    built = ICCacheService(ICCacheConfig(
        seed=0, manager=ManagerConfig(sanitize=True)))
    built.seed_cache(bank)
    built.manager.config.capacity_bytes = built.cache.total_bytes
    return built, stream


def bench_journal(bank_size: int = JOURNAL_BANK, warmup: int = 100,
                  counted: int = 400) -> dict:
    """Work the journal does for one churned request, as exact counts.

    ``bench_e2e``'s ``lifecycle_churn`` seed-0 inputs rebuilt here
    (:func:`_churn_service`), the timed service a recovered one behind a
    size-compacting ``Checkpointer`` — and ``counted`` serves after
    ``warmup``, with no maintenance tick and no compaction in the window
    (asserted).  ``journal_calls_per_request`` counts, by
    :func:`bench_floor`'s definition (``call`` events whose caller's frame,
    ``c_call`` events whose own frame, lies under ``src/repro/``), the
    calls issued while ``WriteAheadLog.record`` or ``WriteAheadLog.flush``
    is on the stack, and ``admit_calls_per_admission`` the same calls
    while ``ExampleManager.admit`` is on the stack (journaling, sanitizing,
    the dedupe probe and eviction included);
    ``journal_writes_per_request`` the ``write``s
    ``persistence/wal.py`` issued on a raw file while
    ``ExampleManager.admit`` was on the stack (every request of the window
    is admitted — asserted — so it is writes per admission; a ``retrain``
    marker a retrieval search journals is its own operation and write, and
    ``journal_writes_outside_admission`` counts those); frames and bytes
    are what all records of the window appended.
    """
    import io
    import tempfile

    from repro.core.manager import ExampleManager
    from repro.persistence import Checkpointer, WriteAheadLog
    from repro.persistence import wal as wal_module

    built, stream = _churn_service(bank_size, warmup + counted)

    package = _package_root()
    wal_file = wal_module.__file__
    journal_codes = (WriteAheadLog.record.__code__,
                     WriteAheadLog.flush.__code__)
    admit_code = ExampleManager.admit.__code__
    state = {"depth": 0, "calls": 0, "admitting": 0, "writes": 0,
             "writes_outside": 0, "admit_calls": 0}

    def hook(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None and \
                    caller.f_code.co_filename.startswith(package):
                state["calls"] += bool(state["depth"])
                state["admit_calls"] += bool(state["admitting"])
            if frame.f_code in journal_codes:   # itself not counted
                state["depth"] += 1
            elif frame.f_code is admit_code:
                state["admitting"] += 1
        elif event == "return":
            if frame.f_code in journal_codes:
                state["depth"] -= 1
            elif frame.f_code is admit_code:
                state["admitting"] -= 1
        elif event == "c_call":
            if frame.f_code.co_filename.startswith(package):
                state["calls"] += bool(state["depth"])
                state["admit_calls"] += bool(state["admitting"])
            if arg.__name__ == "write" and isinstance(
                    arg.__self__, io.FileIO) and \
                    frame.f_code.co_filename == wal_file:
                state["writes" if state["admitting"]
                      else "writes_outside"] += 1

    with tempfile.TemporaryDirectory() as directory:
        first = Checkpointer(built, directory)
        first.checkpoint()
        first.detach()
        service = Checkpointer.recover(directory, config=built.config)
        checkpointer = Checkpointer(
            service, directory,
            compact_after_bytes=JOURNAL_COMPACT_AFTER_BYTES)
        checkpointer.checkpoint()
        for request in stream[:warmup]:
            service.serve(request)
        wal = checkpointer.wal
        frames, size = len(wal), wal.size_bytes
        checkpoints = checkpointer.checkpoints
        serve = service.serve
        sys.setprofile(hook)
        try:
            for request in stream[warmup:]:
                serve(request)
        finally:
            sys.setprofile(None)
        assert checkpointer.checkpoints == checkpoints, \
            "a compaction landed in the counted window"
        assert service.manager.admitted == built.manager.admitted \
            + warmup + counted, "a request of the window was not admitted"
        result = {
            "n": bank_size,
            "requests": counted,
            "journal_calls_per_request": state["calls"] / counted,
            "admit_calls_per_admission": state["admit_calls"] / counted,
            "journal_writes_per_request": state["writes"] / counted,
            "journal_writes_outside_admission": state["writes_outside"],
            "wal_frames_per_request": (len(wal) - frames) / counted,
            "wal_bytes_per_request": (wal.size_bytes - size) / counted,
        }
        checkpointer.detach()
    return result


def bench_replay(bank_size: int = JOURNAL_BANK, served: int = 350) -> dict:
    """Work one sample of a replay pass does, as exact counts.

    :func:`_churn_service`, ``served`` requests (``lifecycle_churn``'s
    warm-up plus one ``tick_every``), 30 minutes on the clock, then one
    ``run_maintenance(replay=True)`` under a ``sys.setprofile`` hook that
    counts generators minted (:func:`bench_floor`'s two sites), the
    non-empty ``seed_words`` passes of the tick (the teacher seeds every
    sample of the replayed prefix ahead), calls of ``SimulatedLLM._draw`` —
    the draw every generation and every replay sample takes, and in a
    maintenance tick there are only replay samples — and, by
    :func:`bench_floor`'s definition, every call issued from ``src/repro/`` (the whole tick's,
    decay and the eviction check included).  A sample needs one generator,
    its decode stream; the per-(model, request) word that stream is derived
    from costs a second only when the teacher has not decoded that request
    before (an example admitted from a small-model response, on its first
    sample).
    """
    from repro.llm.model import SimulatedLLM

    service, stream = _churn_service(bank_size, served)
    for request in stream:
        service.serve(request)
    service.clock.advance(1800.0)
    package = _package_root()
    draw_code = SimulatedLLM._draw.__code__
    counts = {"calls": 0, "minted": 0, "samples": 0, "passes": 0}

    def hook(frame, event, arg):
        if _seeding_pass(frame, event, arg):
            counts["passes"] += 1
        if not _issued_by(package, frame, event):
            return
        counts["calls"] += 1
        if event == "call":
            if frame.f_code in _MINTING:
                counts["minted"] += 1
            elif frame.f_code is draw_code:
                counts["samples"] += 1

    sys.setprofile(hook)
    try:
        summary = service.run_maintenance(replay=True)
    finally:
        sys.setprofile(None)
    assert summary["replayed"] > 0, "the tick replayed nothing"
    return {
        "n": bank_size,
        "replayed": summary["replayed"],
        "samples": counts["samples"],
        "generators_minted_per_replay_sample":
            counts["minted"] / counts["samples"],
        "calls_per_replay_sample": counts["calls"] / counts["samples"],
        "seeding_passes_per_tick": counts["passes"],
    }


def bench_gateway(bank_size: int = GATEWAY_BANK, warmup: int = 200,
                  counted: int = 400) -> dict:
    """What the transport spends on one loopback ``POST /serve``, as counts.

    ``bench_e2e``'s ``gateway_serve`` rebuilt here — one ``GatewayClient``
    on one connection, client and server on one event loop, every request a
    re-ask of a banked one — and ``counted`` requests after ``warmup`` under
    a ``sys.setprofile`` hook that counts event-loop iterations
    (``_run_once``), futures made (``create_future``), timer handles armed
    (``call_at``, which ``call_later`` goes through), ``socket.send`` calls,
    and, by :func:`bench_floor`'s definition, the calls issued from frames
    under ``src/repro/gateway/`` or the standard library's ``asyncio/``.
    """
    import asyncio
    import socket
    from asyncio.base_events import BaseEventLoop

    from repro import ICCacheConfig, ICCacheService
    from repro.core.config import ManagerConfig
    from repro.gateway import (
        AsyncGateway,
        GatewayClient,
        GatewaySession,
        request_to_payload,
    )
    from repro.serving.cluster import ClusterConfig, ModelDeployment
    from repro.workload import SyntheticDataset

    dataset = SyntheticDataset("ms_marco", scale=bank_size / 808_731, seed=0)
    bank = dataset.example_bank_requests()[:bank_size]
    stream = _floor_stream(dataset, bank, warmup + counted, reask_share=1.0)
    service = ICCacheService(ICCacheConfig(
        seed=0, manager=ManagerConfig(sanitize=True)))
    service.seed_cache(bank)

    transport = (os.path.join(_package_root(), "gateway") + os.sep,
                 os.path.dirname(asyncio.__file__) + os.sep)
    by_code = {BaseEventLoop._run_once.__code__: "iterations",
               BaseEventLoop.create_future.__code__: "futures",
               BaseEventLoop.call_at.__code__: "timers"}
    counts = {"iterations": 0, "futures": 0, "timers": 0, "sends": 0,
              "calls": 0}

    def hook(frame, event, arg):
        if event == "call":
            name = by_code.get(frame.f_code)
            if name is not None:
                counts[name] += 1
            caller = frame.f_back
            if caller is not None and \
                    caller.f_code.co_filename.startswith(transport):
                counts["calls"] += 1
        elif event == "c_call":
            if getattr(arg, "__name__", "") == "send" and \
                    isinstance(getattr(arg, "__self__", None), socket.socket):
                counts["sends"] += 1
            if frame.f_code.co_filename.startswith(transport):
                counts["calls"] += 1

    async def drive() -> None:
        models = service.models
        session = GatewaySession(service, ClusterConfig(deployments=[
            ModelDeployment(models[service.small_name], replicas=2),
            ModelDeployment(models[service.large_name], replicas=1),
        ]))
        gateway = AsyncGateway(session)
        await gateway.start()
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                for request in stream[:warmup]:
                    await client.post("/serve", request_to_payload(request))
                trainings = service.cache._index.trainings
                sys.setprofile(hook)
                try:
                    for request in stream[warmup:]:
                        reply = await client.post(
                            "/serve", request_to_payload(request))
                        assert reply.status == 200, reply.payload
                finally:
                    sys.setprofile(None)
                assert service.cache._index.trainings == trainings, \
                    "an index retrain landed in the counted window"
        finally:
            await gateway.shutdown()

    asyncio.run(drive())
    return {
        "n": bank_size,
        "requests": counted,
        "loop_iterations_per_request": counts["iterations"] / counted,
        "futures_per_request": counts["futures"] / counted,
        "timer_handles_per_request": counts["timers"] / counted,
        "socket_sends_per_request": counts["sends"] / counted,
        "gateway_calls_per_request": counts["calls"] / counted,
    }


def bench_scale(n: int = 1_000_000, seed: int = 0, n_queries: int = 200,
                recall_queries: int = 50, maintenance_ticks: int = 5) -> dict:
    """The N=1M story: build, search, retrain amortization, memory.

    Builds one IVF index (incremental retrain size-gated by
    ``repro.vectorstore.ivf.INCREMENTAL_MIN_N``, as the service's is), then
    measures:

    * single-query search latency and recall@5 against exact flat search;
    * steady-state maintenance: ``maintenance_ticks`` forced retrains with
      1% churn between them — at this size every one takes the incremental
      split/merge path, and the mean is the amortized per-tick cost;
    * resident index bytes per vector (the cluster blocks, via ``nbytes``:
      a float32 -> float64 upcast would double it).
    """
    index = IVFIndex(dim=DIM, nprobe=8, seed=seed)
    start = time.perf_counter()
    for base, chunk in clustered_chunks(n, DIM, N_TOPICS, seed=seed):
        chunk = chunk.astype(np.float32)
        for i in range(chunk.shape[0]):
            index.add(base + i, chunk[i])
    index.search(index.get_vector(0), 1)  # settle any pending retrain
    build_s = time.perf_counter() - start

    queries = clustered_vectors(n_queries, DIM, N_TOPICS, seed=seed + 1)
    t_search = _best_of(lambda: [index.search(q, TOP_K) for q in queries])

    # Exact flat baseline for recall@5, on a subsample (flat search at N=1M
    # is ~100 ms/query; 50 queries keep the nightly run bounded).
    flat = FlatIndex(DIM, index._keys, index._pool())  # the retrain's gather
    hits = sum(
        len({r.key for r in index.search(q, TOP_K)} & {r.key for r in truth})
        for q, truth in zip(queries, flat.search_batch(
            queries[:recall_queries], TOP_K))
    )

    # Steady-state maintenance: churn 1% of the pool, force a retrain, and
    # time it; repeat.  At this size the retrain is always incremental.
    churn = max(1, n // 100)
    spare = clustered_vectors(churn, DIM, N_TOPICS,
                              seed=seed + 2).astype(np.float32)
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
        "search_us_per_query": t_search / n_queries * 1e6,
        "recall_at_5_vs_flat": hits / (recall_queries * TOP_K),
        "retrain_ticks": maintenance_ticks,
        "retrain_s_per_tick": sum(tick_times) / len(tick_times),
        "retrain_s_worst_tick": max(tick_times),
        "index_bytes_per_vector": index.nbytes / len(index),
    }


def run(sizes: list[int], out_path: str | Path | None = None,
        full: bool = False, lifecycle_sizes: list[int] | None = None) -> dict:
    """Run the full harness and (optionally) write the BENCH artifact."""
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
        "lifecycle": {str(n): bench_lifecycle(n) for n in lifecycle_sizes},
        "floor": {str(FLOOR_BANK): bench_floor(FLOOR_BANK)},
        "batch": {str(FLOOR_BANK): bench_batch(FLOOR_BANK)},
        "journal": {str(JOURNAL_BANK): bench_journal(JOURNAL_BANK)},
        "replay": {str(JOURNAL_BANK): bench_replay(JOURNAL_BANK)},
        "gateway": {str(GATEWAY_BANK): bench_gateway(GATEWAY_BANK)},
    }
    for n in sizes:
        # One build (and one K-Means train) per size, shared by both
        # benches; churn retrains the index it is handed, so it runs last.
        built = _built_index(n)
        results["search"][str(n)] = bench_search(n, index=built[0])
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


#: The gated work counters, ``section -> keys``.  Each is a count of work
#: done on a seeded input, so it repeats exactly on any box: a moved count
#: means the code did different work, never that the box was slower.
GATED_COUNTERS = {
    "kmeans": ("iterations", "distance_columns"),
    "lifecycle": ("rows_ranked_per_pass",),
    "floor": ("calls_per_request", "generators_minted_per_request",
              "proxy_solves_per_request", "score_batch_calls_per_request"),
    "batch": ("calls_per_request", "results_materialised_per_request",
              "rescored_probes_per_request", "score_batch_calls_per_request",
              "generators_minted_per_request", "seeding_passes_per_request"),
    "journal": ("journal_calls_per_request", "admit_calls_per_admission",
                "journal_writes_per_request", "wal_frames_per_request",
                "wal_bytes_per_request"),
    "replay": ("generators_minted_per_replay_sample",
               "calls_per_replay_sample", "seeding_passes_per_tick"),
    "gateway": ("loop_iterations_per_request", "futures_per_request",
                "timer_handles_per_request", "socket_sends_per_request",
                "gateway_calls_per_request"),
}


def check_against_baseline(results: dict, baseline: dict) -> list[str]:
    """Work counters that differ from the recorded baseline (empty = pass).

    Exact comparison, both directions, for every ``section / N / counter``
    present on both sides; a section or pool size only one side ran is
    skipped.  No timing is compared: wall-clock belongs to ``bench_e2e``.
    """
    failures = []
    for section, keys in GATED_COUNTERS.items():
        for n, base in baseline.get(section, {}).items():
            current = results.get(section, {}).get(n)
            if current is None:
                continue
            for key in keys:
                if key in base and current.get(key) != base[key]:
                    failures.append(
                        f"{section} {key} at N={n} changed: "
                        f"{current.get(key)} != baseline {base[key]}"
                    )
    return failures


def run_baseline_gate(results: dict, baseline_path: str | Path) -> int:
    """Gate ``results`` against a recorded baseline file; returns exit code.

    A missing baseline is **not** a pass: the gate prints an explicit
    "no baseline, gate skipped" warning (a fresh checkout or a renamed
    artifact should be visible in CI logs, not silently green) and returns
    0 without comparing anything.  With a baseline present, moved counters
    print as ``REGRESSION:`` lines and the gate returns 1.
    """
    baseline_path = Path(baseline_path)
    if not baseline_path.is_file():
        print(f"WARNING: no baseline at {baseline_path}, gate skipped")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = check_against_baseline(results, baseline)
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
    parser.add_argument("--lifecycle-sizes", type=int, nargs="+",
                        default=[10_000, 50_000],
                        help="synthetic pool sizes for the lifecycle bench")
    parser.add_argument("--full", action="store_true",
                        help="also run the N=1M scale bench "
                             "(REPRO_PERF_FULL=1 implies this)")
    parser.add_argument("--out", default="BENCH_serve_hotpath.json",
                        help="output artifact path")
    parser.add_argument("--check", metavar="BASELINE",
                        help="baseline JSON of work counters to gate "
                             "against, exactly")
    args = parser.parse_args(argv)
    full = args.full or os.environ.get("REPRO_PERF_FULL") == "1"

    results = run(args.sizes, out_path=args.out, full=full,
                  lifecycle_sizes=args.lifecycle_sizes)
    for n, row in results["search"].items():
        print(f"search  N={n:>6}: {row['vectorized_us_per_query']:8.1f} us/q "
              f"({row['qps']:8.0f} qps), {row['speedup_vs_loop']:5.1f}x vs "
              f"loop, recall@5={row['recall_at_5_vs_flat']:.3f}")
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
    for n, row in results["lifecycle"].items():
        print(f"lifecyc N={n:>7}: decay {row['decay_us_per_tick']:8.1f} "
              f"us/tick, evict one {row['evict_one_us']:6.0f} us "
              f"({row['evict_one_speedup_vs_object']:.0f}x vs per-object, "
              f"{row['rows_ranked_per_pass']:g} rows ranked/pass), "
              f"evict {row['evict_us_per_pass'] / 1e3:8.1f} ms/pass "
              f"({row['evicted']} evicted), restore "
              f"{row['restore_examples_per_s']:,.0f} ex/s")
    for n, row in results["floor"].items():
        print(f"floor   N={n:>6}: {row['calls_per_request']:.2f} calls from "
              f"src/repro per serve, "
              f"{row['generators_minted_per_request']:.2f} generators "
              f"minted, {row['proxy_solves_per_request']:.2f} proxy solves, "
              f"{row['score_batch_calls_per_request']:g} stage-2 scorings "
              f"(over {row['requests']} requests)")
    for n, row in results["batch"].items():
        print(f"batch   N={n:>6}: {row['calls_per_request']:.2f} calls from "
              f"src/repro per request served in {row['batch']}s, "
              f"{row['results_materialised_per_request']:.2f} search results "
              f"materialised, {row['rescored_probes_per_request']:.4f} dedupe "
              f"probes rescored, {row['score_batch_calls_per_request']:g} "
              f"stage-2 scorings, {row['generators_minted_per_request']:.4f} "
              f"generators minted, {row['seeding_passes_per_request']:.4f} "
              f"seeding passes (over {row['requests']} requests)")
    for n, row in results["journal"].items():
        print(f"journal N={n:>6}: {row['journal_calls_per_request']:.2f} "
              f"calls from src/repro inside WriteAheadLog.record / flush per "
              f"churned serve, {row['admit_calls_per_admission']:.2f} "
              f"inside ExampleManager.admit per admission, "
              f"{row['journal_writes_per_request']:g} writes per admission "
              f"(+{row['journal_writes_outside_admission']} outside one), "
              f"{row['wal_frames_per_request']:.3f} frames, "
              f"{row['wal_bytes_per_request']:.1f} bytes "
              f"(over {row['requests']} requests)")
    for n, row in results["replay"].items():
        print(f"replay  N={n:>6}: "
              f"{row['generators_minted_per_replay_sample']:.4f} generators "
              f"minted, {row['calls_per_replay_sample']:.2f} calls from "
              f"src/repro per replay sample ({row['samples']} samples, "
              f"{row['replayed']} examples replayed in one tick, "
              f"{row['seeding_passes_per_tick']} seeding passes)")
    for n, row in results["gateway"].items():
        print(f"gateway N={n:>6}: {row['loop_iterations_per_request']:g} loop "
              f"iterations, {row['futures_per_request']:g} futures, "
              f"{row['timer_handles_per_request']:g} timer handles, "
              f"{row['socket_sends_per_request']:g} socket sends, "
              f"{row['gateway_calls_per_request']:.2f} calls from "
              f"src/repro/gateway + asyncio per loopback POST /serve "
              f"(over {row['requests']} requests)")
    scale = results.get("scale")
    if scale:
        print(f"scale   N={scale['n']:,}: build {scale['build_s']:.0f}s "
              f"({scale['k_clusters']} clusters), search "
              f"{scale['search_us_per_query']:.0f} us/q, "
              f"recall@5={scale['recall_at_5_vs_flat']:.3f}, retrain "
              f"{scale['retrain_s_per_tick'] * 1e3:.0f} ms/tick "
              f"(worst {scale['retrain_s_worst_tick'] * 1e3:.0f} ms), "
              f"index {scale['index_bytes_per_vector']:.0f} B/vec")
        pool = scale.get("pool")
        if pool:
            print(f"scale   pool N={pool['n']:,}: decay "
                  f"{pool['decay_us_per_tick'] / 1e3:.1f} ms/tick, evict "
                  f"{pool['evict_us_per_pass'] / 1e6:.1f} s/pass "
                  f"({pool['evicted']} evicted), restore "
                  f"{pool['restore_examples_per_s']:,.0f} ex/s")
    print(f"wrote {args.out}")

    if args.check:
        return run_baseline_gate(results, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
