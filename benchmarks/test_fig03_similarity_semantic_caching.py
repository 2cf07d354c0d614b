"""Fig. 3 — pervasive request similarity, and why naive semantic caching
hurts quality.

Paper: (a) >70% of requests in MS MARCO / Natural Questions / LMSys-Chat
have a top-1 cosine similarity >= 0.8; (b) returning the most-similar cached
response drops the win rate from 50% to ~18% as hit rates rise.
"""

import numpy as np

from harness import judged, print_table, run_once
from repro.baselines.semantic_cache import SemanticCache
from repro.embedding.embedder import LatentEmbedder
from repro.embedding.similarity import cosine_similarity_matrix
from repro.llm.zoo import get_model
from repro.pipeline import ServeContext
from repro.utils.tokens import count_tokens
from repro.workload.datasets import SyntheticDataset

DATASETS = ["ms_marco", "natural_questions", "lmsys_chat"]


def _top1_similarity_fraction(dataset_name: str, n: int = 250) -> float:
    dataset = SyntheticDataset(dataset_name, scale=0.002, seed=2)
    requests = dataset.online_requests(n)
    embedder = LatentEmbedder()
    embeddings = np.stack([embedder.embed(r.text, r.latent) for r in requests])
    sims = cosine_similarity_matrix(embeddings, embeddings, rescaled=True)
    np.fill_diagonal(sims, -1.0)
    return float((sims.max(axis=1) >= 0.8).mean())


def _semantic_cache_curve(dataset_name: str):
    """Win rate of cache-served responses vs fresh generation, by hit rate."""
    dataset = SyntheticDataset(dataset_name, scale=0.001, seed=3)
    model = get_model("gemma-2-27b")
    embedder = LatentEmbedder()
    history = dataset.example_bank_requests()[:400]
    online = dataset.online_requests(200)

    points = []
    for threshold in (0.98, 0.92, 0.88, 0.84, 0.78):
        cache = SemanticCache("gemma-2-2b", model.name, dim=64,
                              similarity_threshold=threshold)
        for request in history:
            result = model.generate(request)
            cache.put(request, embedder.embed(request.text, request.latent),
                      result.quality,
                      request.prompt_tokens + count_tokens(result.text))
        served, fresh = [], []
        for request in online:
            [hit] = cache.retrieve_batch([ServeContext(
                request,
                embedding=embedder.embed(request.text, request.latent))])
            fresh_quality = model.generate(request).quality
            # A hit returns the cached response verbatim.
            served.append(hit[0].example.reused_quality(request) if hit
                          else fresh_quality)
            fresh.append(fresh_quality)
        report = judged(served, fresh, seed=3)
        points.append((cache.hit_rate, report.win_rate))
    return points


def test_fig03_similarity_and_semantic_caching(benchmark):
    def experiment():
        fractions = {name: _top1_similarity_fraction(name) for name in DATASETS}
        curve = _semantic_cache_curve("ms_marco")
        return fractions, curve

    fractions, curve = run_once(benchmark, experiment)

    print_table(
        "Fig. 3(a): fraction of requests with top-1 similarity >= 0.8",
        ["dataset", "fraction"],
        [[name, frac] for name, frac in fractions.items()],
    )
    print_table(
        "Fig. 3(b): naive semantic caching (MS MARCO)",
        ["hit rate %", "win rate % vs fresh"],
        [[hr * 100, wr * 100] for hr, wr in curve],
    )

    # Shape (a): pervasive similarity, as the paper's 70% claim.
    for name, frac in fractions.items():
        assert frac > 0.7, name
    # Shape (b): quality collapses as hit rate rises; at the highest hit rate
    # the win rate is far below the 50% break-even (paper: ~18%).
    hit_rates = [hr for hr, _ in curve]
    win_rates = [wr for _, wr in curve]
    assert hit_rates[-1] > hit_rates[0]
    assert win_rates[-1] < 0.35
    assert min(win_rates) < 0.35 <= 0.5
