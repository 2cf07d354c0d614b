"""Ablation — the tanh load bias (design choice flagged in DESIGN.md §4).

With the bias disabled, the router keeps sending its learned share of
traffic to the large model even when the cluster saturates, so queueing
explodes; with the bias on, overload sheds traffic to the small model and
latency stays bounded (section 4.2's feedback controller).
"""

import numpy as np

from harness import make_service, print_table, run_once
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.trace import ArrivalTrace

SMALL, LARGE = "gemma-2-2b", "gemma-2-27b"


def _run(bias_enabled: bool, seed: int = 31):
    service, dataset = make_service("ms_marco", pair="gemma", scale=0.001,
                                    seed=seed)
    if not bias_enabled:
        service.config.router.bias_lambda = 0.0
    # Pre-train the router at low load.
    for request in dataset.online_requests(400):
        service.serve(request, load=0.2)

    # Overload phase: offered load ~2x the large model's capacity share.
    trace = ArrivalTrace(bucket_seconds=30.0,
                         rates_per_second=np.full(10, 4.0))
    times = trace.arrival_times(seed=seed)
    arrivals = list(zip(times, dataset.online_requests(len(times))))
    sim = ClusterSimulator(ClusterConfig(
        deployments=[
            ModelDeployment(service.models[SMALL], replicas=8),
            ModelDeployment(service.models[LARGE], replicas=1),
        ],
        gpu_budget=16,
    ))
    report = sim.run(arrivals, service.pipeline.route_batch,
                     on_complete=service.pipeline.on_complete)
    return {
        "offload": report.offload_ratio({SMALL}),
        "p99": report.latency_summary().p99,
        "mean": report.latency_summary().mean,
    }


def test_ablation_tanh_load_bias(benchmark):
    def experiment():
        return {
            "bias on": _run(True),
            "bias off": _run(False),
        }

    results = run_once(benchmark, experiment)
    print_table(
        "Ablation: tanh load bias under a 2x overload burst",
        ["variant", "offload ratio", "mean latency (s)", "p99 (s)"],
        [[name, m["offload"], m["mean"], m["p99"]]
         for name, m in results.items()],
    )

    on = results["bias on"]
    off = results["bias off"]
    # Shape: the bias sheds overload to the small model and bounds latency.
    assert on["offload"] >= off["offload"]
    assert on["p99"] <= off["p99"]
    assert on["mean"] < 5.0
