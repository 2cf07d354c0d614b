"""Fig. 12 — end-to-end online serving on the 30-minute trace.

Paper: against Gemma-2-2B/27B on a 16-GPU cluster replaying the Microsoft
trace, IC-Cache (a) offloads most requests to the small model (adapting to
load), (b) keeps average latency far below always-27B under burst, and (c)
holds response quality at or above the always-27B win-rate parity line,
beating RouteLLM by ~9% quality at comparable throughput.
"""

import numpy as np

from harness import judged, print_table, run_once
from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.llm.zoo import get_model
from repro.pipeline.policies import build_routellm
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.metrics import offload_ratio_fn, windowed_series
from repro.workload.datasets import SyntheticDataset
from repro.workload.trace import evaluation_trace

SMALL, LARGE = "gemma-2-2b", "gemma-2-27b"


def _cluster(service_models=None, seed=0):
    models = service_models or {SMALL: get_model(SMALL, seed=seed),
                                LARGE: get_model(LARGE, seed=seed)}
    return ClusterSimulator(ClusterConfig(
        deployments=[
            ModelDeployment(models[SMALL], replicas=8),   # 8 GPUs
            ModelDeployment(models[LARGE], replicas=1),   # 8 GPUs
        ],
        gpu_budget=16,
    ))


def _arrivals(dataset, mean_rps=2.5, seed=12):
    trace = evaluation_trace(duration_minutes=30, mean_rps=mean_rps, seed=seed)
    times = trace.arrival_times(seed=seed)
    requests = dataset.online_requests(len(times))
    return list(zip(times, requests))


def _run_policy(policy: str, dataset_name: str, seed: int = 12):
    dataset = SyntheticDataset(dataset_name, scale=0.001, seed=seed)
    # History is generated before the online stream for every policy (the
    # dataset's request generator is call-order dependent), so all four
    # policies replay the identical arrival sequence.
    history = dataset.example_bank_requests()[:400]
    arrivals = _arrivals(dataset, seed=seed)

    if policy in (SMALL, LARGE):
        sim = _cluster(seed=seed)
        report = sim.run(arrivals, lambda rs, s: [(policy, []) for _ in rs])
    else:
        # Both learned systems drive the cluster through the same pipeline
        # protocols.
        config = ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
        if policy == "ic-cache":
            service = ICCacheService(config)
            service.seed_cache(history)
            pipeline = service.pipeline
        else:
            pipeline = build_routellm(config)
        sim = _cluster(pipeline.models, seed=seed)
        report = sim.run(arrivals, pipeline.route_batch,
                         on_complete=pipeline.on_complete)

    requests = [r for _, r in arrivals]
    reference = [get_model(LARGE, seed=99).generate(r).quality
                 for r in requests]
    quality_by_id = {rec.request_id: rec.quality for rec in report.records}
    served = [quality_by_id[r.request_id] for r in requests]
    win = judged(served, reference, seed=seed)
    return {
        "offload": report.offload_ratio({SMALL}),
        "mean_latency": report.latency_summary().mean,
        "p99_latency": report.latency_summary().p99,
        "win_rate": win.win_rate,
        "throughput": report.throughput_rps,
        "report": report,
    }


def test_fig12_end_to_end_online(benchmark):
    def experiment():
        results = {}
        for dataset_name in ("ms_marco", "natural_questions"):
            results[dataset_name] = {
                "IC-Cache": _run_policy("ic-cache", dataset_name),
                "RouteLLM+": _run_policy("routellm", dataset_name),
                "Always 2B": _run_policy(SMALL, dataset_name),
                "Always 27B": _run_policy(LARGE, dataset_name),
            }
        return results

    results = run_once(benchmark, experiment)

    for dataset_name, by_policy in results.items():
        print_table(
            f"Fig. 12 ({dataset_name}): online serving over the 30-min trace",
            ["policy", "offload ratio", "mean latency (s)", "p99 (s)",
             "win rate % vs 27B", "throughput (rps)"],
            [[name, m["offload"], m["mean_latency"], m["p99_latency"],
              m["win_rate"] * 100, m["throughput"]]
             for name, m in by_policy.items()],
        )
        # Per-minute offload series for the IC-Cache run (Fig. 12a/b).
        series = windowed_series(by_policy["IC-Cache"]["report"], 60.0,
                                 offload_ratio_fn({SMALL}))
        with np.printoptions(precision=2, suppress=True):
            print(f"   per-minute offload ratio: {series.values}")

    for dataset_name, by_policy in results.items():
        ic = by_policy["IC-Cache"]
        large_only = by_policy["Always 27B"]
        small_only = by_policy["Always 2B"]
        route = by_policy["RouteLLM+"]
        # Shape: IC-Cache offloads the majority of traffic...
        assert ic["offload"] > 0.5, dataset_name
        # ...with far lower latency than always-27B under the bursty trace
        # (paper: 28-71% latency reduction; queueing amplifies this)...
        assert ic["mean_latency"] < 0.6 * large_only["mean_latency"], dataset_name
        # ...without giving up quality relative to the 27B reference
        # (win rate near or above parity; paper hovers around 50%)...
        assert ic["win_rate"] > 0.42, dataset_name
        # ...and clearly above the always-2B quality floor.
        assert ic["win_rate"] > small_only["win_rate"] + 0.05, dataset_name
        # IC-Cache matches or beats RouteLLM on quality (paper: +9%).
        assert ic["win_rate"] >= route["win_rate"] - 0.02, dataset_name
