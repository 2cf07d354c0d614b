"""Ablation — K = sqrt(N) clustered retrieval vs a flat scan (section 4.1).

The paper derives K = argmin(K + N/K) = sqrt(N) for the stage-1 matching
cost.  This bench measures both the analytic comparison count and the wall
clock of flat vs IVF search on a realistic example pool, and verifies the
IVF recall stays high on topic-clustered data.
"""

import time

import numpy as np

from harness import print_table, run_once
from repro.embedding.embedder import LatentEmbedder
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.ivf import IVFIndex, optimal_cluster_count
from repro.workload.datasets import SyntheticDataset


def test_ablation_ivf_vs_flat(benchmark):
    def experiment():
        dataset = SyntheticDataset("ms_marco", scale=0.01, seed=32)
        embedder = LatentEmbedder()
        pool = dataset.example_bank_requests()[:4000]
        queries = dataset.online_requests(200)

        flat = FlatIndex(dim=64)
        ivf = IVFIndex(dim=64, nprobe=3, seed=32)
        for i, request in enumerate(pool):
            emb = embedder.embed(request.text, request.latent)
            flat.add(i, emb)
            ivf.add(i, emb)

        query_embs = [embedder.embed(q.text, q.latent) for q in queries]
        ivf.search(query_embs[0], 1)  # force training before timing

        t0 = time.perf_counter()
        flat_results = [frozenset(r.key for r in flat.search_batch([q], 5)[0])
                        for q in query_embs]
        t_flat = time.perf_counter() - t0
        t0 = time.perf_counter()
        ivf_results = [frozenset(r.key for r in ivf.search(q, 5))
                       for q in query_embs]
        t_ivf = time.perf_counter() - t0

        recall = float(np.mean([
            len(a & b) / 5 for a, b in zip(flat_results, ivf_results)
        ]))
        return {
            "n": len(pool),
            "k_clusters": ivf.n_clusters,
            "flat_cost": float(len(pool)),
            "ivf_cost": ivf.matching_cost(),
            "t_flat_ms": t_flat / len(queries) * 1000,
            "t_ivf_ms": t_ivf / len(queries) * 1000,
            "recall_at_5": recall,
        }

    m = run_once(benchmark, experiment)
    print_table(
        "Ablation: stage-1 retrieval, flat scan vs K=sqrt(N) IVF",
        ["metric", "value"],
        [["pool size N", m["n"]],
         ["clusters K", m["k_clusters"]],
         ["flat comparisons/query", m["flat_cost"]],
         ["IVF comparisons/query (K + nprobe*N/K)", m["ivf_cost"]],
         ["flat ms/query", m["t_flat_ms"]],
         ["IVF ms/query", m["t_ivf_ms"]],
         ["IVF recall@5 vs flat", m["recall_at_5"]]],
    )

    assert m["k_clusters"] == optimal_cluster_count(m["n"])
    # The sqrt(N) schedule cuts analytic matching cost by an order of
    # magnitude at N=4000 and keeps recall high on clustered workloads.
    assert m["ivf_cost"] < 0.15 * m["flat_cost"]
    assert m["recall_at_5"] >= 0.8
