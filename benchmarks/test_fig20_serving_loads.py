"""Fig. 20 — request completion time across serving loads.

Paper (Alpaca, QPS = 1 / 2 / 4): Gemma-2-2B + IC-Cache tracks plain 2B
(11-35% lower P50, 14-31% higher P99 from decode-length shifts) and crushes
27B: P50 75-83% lower, P99 69-71% lower.

The live-autoscaling scenario exercises the serving story *online*
(section 4.2): a diurnal open-loop trace drives the router's bias signal,
and an :class:`~repro.runtime.sources.AutoscalerTickSource` applies the
resulting scaling decisions to the small tier mid-run, inside the paper's
16-GPU budget.
"""

import numpy as np

from harness import make_service, print_table, run_once
from repro.llm.zoo import get_model
from repro.runtime import AutoscalerTickSource, TraceArrivalSource
from repro.serving.autoscaler import BiasAutoscaler
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.trace import ArrivalTrace, diurnal_trace

SMALL, LARGE = "gemma-2-2b", "gemma-2-27b"
QPS_LEVELS = (1.0, 2.0, 4.0)
DURATION_S = 240.0


def _arrivals(dataset, qps, seed):
    trace = ArrivalTrace(
        bucket_seconds=30.0,
        rates_per_second=np.full(int(DURATION_S / 30), qps),
    )
    times = trace.arrival_times(seed=seed)
    return list(zip(times, dataset.online_requests(len(times))))


def _simulate(policy: str, qps: float, seed: int = 20):
    service, dataset = make_service("alpaca", pair="gemma", scale=0.01,
                                    seed=seed)
    if policy == "ic":
        # The paper's "Gemma-2-2b + IC" row measures the IC-augmented small
        # model itself (its latency tracks 2B, Fig. 18); pin the router so
        # the row is not a 2B/27B mixture.
        service.router_enabled = False
        for request in dataset.online_requests(250):
            service.serve(request, load=0.2)
    arrivals = _arrivals(dataset, qps, seed)

    def deployments(small_replicas, large_replicas):
        return [
            ModelDeployment(get_model(SMALL, seed=seed), replicas=small_replicas),
            ModelDeployment(get_model(LARGE, seed=seed), replicas=large_replicas),
        ]

    sim = ClusterSimulator(ClusterConfig(
        deployments=deployments(8, 1), gpu_budget=16,
    ))
    if policy == "ic":
        report = sim.run(arrivals, service.pipeline.route_batch,
                         on_complete=service.pipeline.on_complete)
    elif policy == "small":
        report = sim.run(arrivals, lambda rs, s: [(SMALL, []) for _ in rs])
    else:
        report = sim.run(arrivals, lambda rs, s: [(LARGE, []) for _ in rs])
    summary = report.latency_summary()
    return summary.p50, summary.p99


def test_fig20_serving_loads(benchmark):
    def experiment():
        results = {}
        for qps in QPS_LEVELS:
            results[qps] = {
                "Gemma-2-2b": _simulate("small", qps),
                "Gemma-2-2b + IC": _simulate("ic", qps),
                "Gemma-2-27b": _simulate("large", qps),
            }
        return results

    results = run_once(benchmark, experiment)
    rows = []
    for qps, by_policy in results.items():
        for name, (p50, p99) in by_policy.items():
            rows.append([f"QPS={qps:g}", name, p50, p99])
    print_table(
        "Fig. 20: request completion time by load (Alpaca)",
        ["load", "system", "P50 (s)", "P99 (s)"],
        rows,
    )

    for qps, by_policy in results.items():
        small_p50, small_p99 = by_policy["Gemma-2-2b"]
        ic_p50, ic_p99 = by_policy["Gemma-2-2b + IC"]
        large_p50, large_p99 = by_policy["Gemma-2-27b"]
        # Shape: 2B+IC latency is in the 2B ballpark (well under 2x)...
        assert ic_p50 < 2.0 * small_p50, qps
        # ...and far below 27B (paper: P50 -75-83%, P99 -69-71%; queueing
        # under load amplifies the gap further).
        assert ic_p50 < 0.4 * large_p50, qps
        assert ic_p99 < 0.5 * large_p99, qps
    # Load hurts the 27B deployment much more than IC-Cache.
    large_growth = results[4.0]["Gemma-2-27b"][1] / results[1.0]["Gemma-2-27b"][1]
    ic_growth = results[4.0]["Gemma-2-2b + IC"][1] / results[1.0]["Gemma-2-2b + IC"][1]
    assert large_growth > ic_growth


def test_fig20_live_autoscaling_diurnal(benchmark):
    """One compressed diurnal "day" with the bias autoscaler applied live.

    The trace starts at the trough, peaks mid-run, and relaxes; the
    section-4.2 signal ("the persistent magnitude of this applied bias can
    be used ... for infrastructure auto-scaling") must grow replicas into
    the peak and give them back at the trough — never exceeding the 16-GPU
    budget.
    """
    seed = 21
    duration_s = 600.0

    def experiment():
        service, dataset = make_service("alpaca", pair="gemma", scale=0.01,
                                        seed=seed)
        trace = diurnal_trace(duration_s=duration_s, mean_rps=3.0,
                              period_s=duration_s, peak_to_trough=5.0,
                              seed=seed)
        times = trace.arrival_times(seed=seed)
        arrivals = list(zip(times, dataset.online_requests(len(times))))
        sim = ClusterSimulator(ClusterConfig(deployments=[
            ModelDeployment(get_model(SMALL, seed=seed), replicas=2),
            ModelDeployment(get_model(LARGE, seed=seed), replicas=1),
        ], gpu_budget=16))
        ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=2, ema_alpha=0.3),
            SMALL, service.router.current_bias,
            interval_s=10.0, horizon_s=duration_s + 30.0,
        )
        source = TraceArrivalSource(arrivals, service.pipeline.route_batch)
        report = sim.run_sources([source, ticks],
                                 on_complete=service.pipeline.on_complete)
        return len(arrivals), report, ticks.history

    n_arrivals, report, history = run_once(benchmark, experiment)
    replicas = [s.replicas for s in history]
    actions = [s.decision.action for s in history]
    print_table(
        "Fig. 20 (live): small-tier replicas under a diurnal day",
        ["window", "mean replicas", "max bias EMA"],
        [[f"{int(lo)}-{int(hi)}s",
          float(np.mean([s.replicas for s in history
                         if lo <= s.time_s < hi])),
          float(max(s.decision.bias_ema for s in history
                    if lo <= s.time_s < hi))]
         for lo, hi in [(0, 200), (200, 400), (400, 630)]],
    )

    assert report.n == n_arrivals                       # nothing lost mid-scale
    assert max(s.total_gpus for s in history) <= 16     # budget respected live
    assert report.scaling, "autoscaler never changed the cluster"
    assert "scale_up" in actions and "scale_down" in actions
    # The replica count tracks the diurnal bias: more capacity through the
    # mid-run peak than in the opening trough.
    peak = np.mean([s.replicas for s in history if 200 <= s.time_s < 400])
    trough = np.mean([s.replicas for s in history if s.time_s < 100])
    assert peak > trough
    assert max(replicas) > min(replicas)
