"""Perf — batched retrieval vs per-request search.

Not a paper figure: this bench guards the batched retrieval engine's reason
to exist.  At production pool sizes the serve loop must not pay a Python
loop per *candidate*; ``search_batch`` scores each query's probed clusters
with one vectorized einsum each, and a lone ``search`` is a batch of one.
Asserted here:

* ``IVFIndex.search_batch`` >= 6x the throughput of the per-candidate
  Python reference loop at N=10k, dim=64, batch=64 — it reads ~19x (since
  the contiguous cluster-major layout, looped single-query ``search`` is
  itself vectorized — see ``docs/PERFORMANCE.md`` — so the batch path must
  also stay within 2x of it: batching may only amortize, never slow
  serving);
* at the service's own operating point — N=3 000, batch 16, ``pre_k`` = 20,
  ``nprobe`` = 2, what every ``serve_batch`` of ``bench_e2e`` runs —
  ``search_batch`` takes no longer than looping ``search`` over the same
  rows (by this very measurement it took 1.07x while it built a
  ``SearchResult`` per candidate and sorted them in Python; it reads
  0.86-0.89x).  Both sides are timed interleaved, batch by batch, and
  compared by their fastest pass, so a busy box slows both or neither.
"""

from harness import print_table, run_once
from perf_harness import (
    N_TOPICS,
    _best_of,
    clustered_vectors,
    reference_search,
)
from repro.vectorstore import FlatIndex, IVFIndex

N, DIM, BATCH, K = 10_000, 64, 64, 5
#: The service's operating point: ``bench_e2e``'s bank, ``serve_batch16``'s
#: batch, ``SelectorConfig.pre_k`` and the service index's ``nprobe``.
SERVICE_N, SERVICE_BATCH, SERVICE_K, SERVICE_NPROBE = 3_000, 16, 20, 2


def test_perf_batched_retrieval(benchmark):
    vectors = clustered_vectors(N, DIM, N_TOPICS, seed=0)
    queries = clustered_vectors(BATCH, DIM, N_TOPICS, seed=1)

    flat = FlatIndex(DIM)
    ivf = IVFIndex(dim=DIM, nprobe=4, seed=0)
    for i, vec in enumerate(vectors):
        flat.add(i, vec)
        ivf.add(i, vec)
    ivf.search(queries[0], K)          # force training outside the timers

    def timings():
        return {
            "ivf candidate loop": _best_of(
                lambda: [reference_search(ivf, q, K) for q in queries]
            ),
            "ivf loop": _best_of(lambda: [ivf.search(q, K) for q in queries]),
            "ivf batch": _best_of(lambda: ivf.search_batch(queries, K)),
            "flat batch": _best_of(lambda: flat.search_batch(queries, K)),
        }

    times = run_once(benchmark, timings)
    qps = {name: BATCH / t for name, t in times.items()}
    speedup = times["ivf candidate loop"] / times["ivf batch"]
    print_table(
        f"Batched retrieval throughput (N={N}, dim={DIM}, batch={BATCH}, k={K})",
        ["path", "time (ms)", "queries/s", "speedup vs candidate loop"],
        [[name, times[name] * 1e3, qps[name],
          times["ivf candidate loop"] / times[name]] for name in times],
    )

    # The tentpole claim: batching amortizes per-candidate Python overhead.
    assert speedup >= 6.0, f"search_batch only {speedup:.1f}x over looped search"
    # And it must never cost throughput versus looped vectorized search.
    slowdown = times["ivf batch"] / times["ivf loop"]
    assert slowdown <= 2.0, f"search_batch {slowdown:.1f}x slower than looping"

    # One kernel: the batch is the looped path, bit for bit.
    assert ivf.search_batch(queries, K) == [ivf.search(q, K) for q in queries]


def _interleaved_fastest(fns: dict, batches: list, rounds: int = 30) -> dict:
    """Fastest time of each ``fn(batch)`` per batch, summed over batches.

    Every round runs every function on every batch back to back, so a noisy
    neighbour hits all of them alike, and noise only ever adds time: the
    minimum per (function, batch) is the least disturbed measurement.
    """
    import time

    fastest = {name: [float("inf")] * len(batches) for name in fns}
    for _ in range(rounds):
        for i, batch in enumerate(batches):
            for name, fn in fns.items():
                start = time.perf_counter()
                fn(batch)
                took = time.perf_counter() - start
                if took < fastest[name][i]:
                    fastest[name][i] = took
    return {name: sum(times) for name, times in fastest.items()}


def test_perf_batched_retrieval_at_the_service_operating_point(benchmark):
    vectors = clustered_vectors(SERVICE_N, DIM, N_TOPICS, seed=0)
    queries = clustered_vectors(SERVICE_BATCH * 20, DIM, N_TOPICS, seed=1)
    index = IVFIndex(dim=DIM, nprobe=SERVICE_NPROBE, seed=0)
    for i, vec in enumerate(vectors):
        index.add(i, vec)
    index.search(queries[0], SERVICE_K)     # train outside the timers
    batches = [queries[i:i + SERVICE_BATCH]
               for i in range(0, len(queries), SERVICE_BATCH)]

    def loop(batch):
        for query in batch:
            index.search(query, SERVICE_K)

    times = run_once(benchmark, lambda: _interleaved_fastest(
        {"ivf loop": loop,
         "ivf batch": lambda batch: index.search_batch(batch, SERVICE_K)},
        batches))
    per_query = {name: t / len(queries) * 1e6 for name, t in times.items()}
    ratio = times["ivf batch"] / times["ivf loop"]
    print_table(
        f"Batch vs loop at the service's operating point (N={SERVICE_N}, "
        f"batch={SERVICE_BATCH}, k={SERVICE_K}, nprobe={SERVICE_NPROBE})",
        ["path", "us/query", "vs loop"],
        [[name, per_query[name], times[name] / times["ivf loop"]]
         for name in times],
    )
    assert ratio <= 1.0, \
        f"search_batch takes {ratio:.2f}x looped search where serve_batch runs"
