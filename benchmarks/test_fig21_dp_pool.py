"""Fig. 21 — a differentially-private synthetic example pool.

Paper (MS MARCO / LMSys-Chat): replacing the raw example pool with DP
synthetic examples costs a few win-rate points (57.3 -> 52.0 and
40.5 -> 39.0) but still far outperforms serving without IC-Cache.
"""

from harness import judged, make_service, print_table, run_once
from repro.core.cache import ExampleCache
from repro.privacy.dp_synth import DPSynthesizer


def _run(dataset_name: str, seed: int = 21, n: int = 200):
    service, dataset = make_service(dataset_name, pair="gemma", scale=0.001,
                                    seed=seed)
    small = service.models[service.small_name]
    large = service.models[service.large_name]
    requests = dataset.online_requests(n)
    reference = [large.generate(r).quality for r in requests]

    def augmented_win_rate():
        qualities = []
        for request in requests:
            embedding = service.embedder.embed(request.text, request.latent)
            views = [s.example.view()
                     for s in service.selector.select(embedding)]
            qualities.append(small.generate(request, views).quality)
        return judged(qualities, reference, seed=seed).win_rate * 100

    no_ic = judged([small.generate(r).quality for r in requests],
                   reference, seed=seed).win_rate * 100
    with_original = augmented_win_rate()

    # Swap in the DP-synthesized pool.
    # epsilon=8 is the usual regime for high-dimensional embedding release;
    # epsilon=4 noise (sigma~1.2 on unit latents) would destroy topical
    # structure entirely rather than "slightly decrease" quality (Fig. 21).
    synth = DPSynthesizer(epsilon=8.0, seed=seed)
    dp_cache = ExampleCache(dim=service.embedder.dim)
    for example in synth.synthesize(service.cache.examples()):
        dp_cache.add(example)
    service.selector.cache = dp_cache
    with_dp = augmented_win_rate()
    return no_ic, with_dp, with_original


def test_fig21_dp_synthetic_pool(benchmark):
    def experiment():
        return {
            "ms_marco": _run("ms_marco"),
            "lmsys_chat": _run("lmsys_chat"),
        }

    results = run_once(benchmark, experiment)
    print_table(
        "Fig. 21: win rate % vs large model",
        ["dataset", "no IC", "IC w/ DP pool", "IC w/ original pool"],
        [[name, *vals] for name, vals in results.items()],
    )

    for name, (no_ic, with_dp, with_original) in results.items():
        # Shape: DP costs a little quality but stays far above no-IC.
        assert with_dp <= with_original + 2.0, name
        assert with_dp > no_ic + 5.0, name
        assert with_original - with_dp < 15.0, name
