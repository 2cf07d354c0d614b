"""Fig. 13 — the quality-efficiency Pareto frontier.

Paper: sweeping the routing threshold trades offload fraction (normalized
throughput, relative to serving everything on Gemma-2-27B) against win rate.
IC-Cache dominates RouteLLM: at the same quality target it reaches ~2.3x the
throughput; at 6x throughput it improves quality 4-16%; on MS MARCO the 2B
model exceeds a 50% win rate.
"""

import numpy as np

from harness import judged, make_service, print_table, run_once
from repro.baselines.routellm import RouteLLMRouter
from repro.llm.zoo import get_model, get_model_pair
from repro.pipeline import ServeContext

SMALL, LARGE = "gemma-2-2b", "gemma-2-27b"
# Normalized throughput model (paper Fig. 13's x-axis): serving a request on
# the 2B costs 1/CAPACITY_RATIO of a 27B slot, so throughput relative to
# all-27B is 1 / (1 - offload * (1 - 1/CAPACITY_RATIO)).
CAPACITY_RATIO = 7.2  # GPUs-per-QPS gap measured in Fig. 18


def normalized_throughput(offload_ratio: float) -> float:
    return 1.0 / (1.0 - offload_ratio * (1.0 - 1.0 / CAPACITY_RATIO))


# Alpaca's Table-1 example bank is 25x smaller than MS MARCO's, so its
# bench scale is raised to keep a usable example density.
SCALES = {"alpaca": 0.01}


def _sweep_ic(dataset_name: str, seed: int = 13):
    """Sweep IC-Cache's cost-bias to move along its Pareto frontier."""
    points = []
    scale = SCALES.get(dataset_name, 0.001)
    for cost_penalty in (0.0, 0.03, 0.08, 0.15, 0.3):
        service, dataset = make_service(dataset_name, pair="gemma",
                                        scale=scale, seed=seed)
        service.config.router.cost_penalty = cost_penalty
        requests = dataset.online_requests(500)
        outcomes = [service.serve(r, load=0.3) for r in requests]
        reference = [get_model(LARGE, seed=99).generate(r).quality
                     for r in requests]
        tail = outcomes[200:]   # post-warmup
        report = judged([o.result.quality for o in tail],
                        reference[200:], seed=seed)
        offload = float(np.mean([o.offloaded for o in tail]))
        points.append((normalized_throughput(offload), report.win_rate))
    return points


def _sweep_routellm(dataset_name: str, seed: int = 13):
    small, large = get_model_pair("gemma")
    points = []
    from repro.workload.datasets import SyntheticDataset
    dataset = SyntheticDataset(dataset_name, scale=SCALES.get(dataset_name, 0.001),
                               seed=seed)
    requests = dataset.online_requests(300)
    reference = [get_model(LARGE, seed=99).generate(r).quality
                 for r in requests]
    for threshold in (0.9, 0.6, 0.4, 0.2, 0.05):
        router = RouteLLMRouter(SMALL, LARGE, threshold=threshold, seed=seed)
        qualities, offloads = [], []
        for request, ref in zip(requests, reference):
            choice = router.route(ServeContext(request)).model_name
            model = small if choice == SMALL else large
            qualities.append(model.generate(request).quality)
            offloads.append(choice == SMALL)
        report = judged(qualities, reference, seed=seed)
        points.append((normalized_throughput(float(np.mean(offloads))),
                       report.win_rate))
    return points


def test_fig13_quality_throughput_pareto(benchmark):
    def experiment():
        results = {}
        for name in ("ms_marco", "alpaca"):
            results[name] = {
                "ic": _sweep_ic(name),
                "routellm": _sweep_routellm(name),
            }
        return results

    results = run_once(benchmark, experiment)

    for name, curves in results.items():
        rows = [["IC-Cache", t, w * 100] for t, w in curves["ic"]]
        rows += [["RouteLLM", t, w * 100] for t, w in curves["routellm"]]
        print_table(
            f"Fig. 13 ({name}): normalized throughput vs win rate",
            ["system", "normalized throughput", "win rate %"],
            rows,
        )

    for name, curves in results.items():
        ic = curves["ic"]
        routellm = curves["routellm"]
        # Shape: at every high-throughput RouteLLM point, IC-Cache achieves
        # at least comparable quality at comparable-or-better throughput
        # (compared at the nearest throughput IC-Cache actually reaches).
        max_ic_throughput = max(tp for tp, _ in ic)

        def best_ic_quality_at(t):
            target = min(t, max_ic_throughput)
            return max((w for tp, w in ic if tp >= target - 0.3), default=0.0)

        for t, w in routellm:
            if t >= 2.0:
                assert best_ic_quality_at(t) >= w - 0.03, (name, t)
        # IC-Cache sustains >=50% win rate at multi-x throughput on MS MARCO
        # (the paper's 2B-beats-27B observation).
        if name == "ms_marco":
            assert any(w >= 0.5 and t >= 2.0 for t, w in ic)
        # RouteLLM's quality collapses at max offload; IC-Cache's does not.
        ic_floor = min(w for t, w in ic if t >= 3.0)
        routellm_floor = min(w for t, w in routellm if t >= 3.0)
        assert ic_floor > routellm_floor, name
