"""Fig. 14 — IC-Cache augments semantic-caching deployments.

Paper: as the similarity threshold is relaxed, hit rates rise and pure
semantic caching loses quality; repurposing the retrieved entries as
in-context examples (instead of returning them verbatim) recovers up to 28%
quality, i.e. the "Semantic w/ IC" curve sits far above "Semantic w/o IC"
at every hit rate.

The "w/ IC" arm is the ``build_semantic_cache`` serving pipeline — the
same pipeline that drives the cluster in the end-to-end benchmarks — with
admission swapped out so the cache stays fixed after its offline warm-up,
matching the figure's setup.  The "w/o IC" arm replays each hit verbatim
(the degraded-reuse quality model of the baseline).
"""

from harness import judged, print_table, run_once
from repro.core.config import ICCacheConfig
from repro.llm.zoo import get_model_pair
from repro.pipeline import NullAdmission
from repro.pipeline.policies import build_semantic_cache
from repro.workload.datasets import SyntheticDataset

THRESHOLDS = (0.98, 0.9, 0.84, 0.78)


def _run(dataset_name: str, seed: int = 14):
    small, large = get_model_pair("gemma")
    reference_large = get_model_pair("gemma")[1]   # fresh decode counts
    dataset = SyntheticDataset(dataset_name, scale=0.001, seed=seed)
    history = dataset.example_bank_requests()[:400]
    online = dataset.online_requests(150)

    curves = []
    for threshold in THRESHOLDS:
        pipeline = build_semantic_cache(
            config=ICCacheConfig(seed=seed),
            models={small.name: small, large.name: large},
            history=history,
            similarity_threshold=threshold,
        )
        # Fig. 14 evaluates a fixed, offline-warmed cache: online requests
        # must not be inserted, so swap admission out (one-line policy
        # change through the pipeline API).
        cache = pipeline.retrieval
        pipeline.admission = NullAdmission()

        without_ic, with_ic, fresh = [], [], []
        for request, ctx in zip(online, pipeline.run_batch(online)):
            fresh_quality = reference_large.generate(request).quality
            fresh.append(fresh_quality)
            if ctx.examples:
                # Hit.  w/ IC: the pipeline repurposed the cached pair as
                # an in-context example on the small model.
                with_ic.append(ctx.result.quality)
                # w/o IC: return the cached response verbatim; quality
                # degrades with the latent distance to the source request.
                without_ic.append(
                    ctx.examples[0].example.reused_quality(request))
            else:
                # Miss: both arms generate fresh with the large model.
                without_ic.append(ctx.result.quality)
                with_ic.append(ctx.result.quality)

        curves.append((
            cache.hit_rate,
            judged(without_ic, fresh, seed=seed).win_rate,
            judged(with_ic, fresh, seed=seed).win_rate,
        ))
    return curves


def test_fig14_semantic_cache_augmentation(benchmark):
    def experiment():
        return {
            "natural_questions": _run("natural_questions"),
            "lmsys_chat": _run("lmsys_chat"),
        }

    results = run_once(benchmark, experiment)
    for name, curves in results.items():
        print_table(
            f"Fig. 14 ({name}): semantic caching with/without IC",
            ["hit rate %", "win rate % w/o IC", "win rate % w/ IC"],
            [[hr * 100, wo * 100, wi * 100] for hr, wo, wi in curves],
        )

    for name, curves in results.items():
        high_hit = [c for c in curves if c[0] > 0.3]
        assert high_hit, name
        for hit_rate, without_ic, with_ic in high_hit:
            # Shape: repurposing as IC examples beats verbatim reuse.
            assert with_ic > without_ic + 0.05, (name, hit_rate)
        # Verbatim reuse decays with hit rate; IC decays far more slowly
        # (a single repurposed example recovers much of the gap).
        assert min(wi for _, _, wi in high_hit) > 0.35, name
        assert min(wi for _, _, wi in high_hit) > min(
            wo for _, wo, _ in high_hit
        ) + 0.05, name
