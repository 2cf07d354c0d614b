"""Cloud serving scenario: replay a bursty trace through a 16-GPU cluster.

This is the paper's primary deployment (section 3, Fig. 12) on the event
runtime: IC-Cache sits in front of a cluster running replicas of
Gemma-2-2B and one replica of Gemma-2-27B; requests arrive on the
30-minute bursty evaluation trace; an autoscaler tick applies the
section-4.2 bias signal to the small tier live, and a maintenance tick
runs the section-4.3 cache lifecycle (decay / evict / replay) *during*
serving.  Compare IC-Cache against always-small and always-large
policies.  Run:

    python examples/cloud_serving.py
"""

import numpy as np

from repro import ICCacheConfig
from repro.core.config import ManagerConfig
from repro.core.service import ICCacheService
from repro.llm.zoo import get_model
from repro.runtime import (
    AutoscalerTickSource,
    MaintenanceTickSource,
    TraceArrivalSource,
)
from repro.serving.autoscaler import BiasAutoscaler
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.metrics import offload_ratio_fn, replica_series, windowed_series
from repro.workload import SyntheticDataset, evaluation_trace

SMALL, LARGE = "gemma-2-2b", "gemma-2-27b"
START_SMALL_REPLICAS = 4


def build_cluster(models=None, seed=0, small_replicas=8):
    models = models or {SMALL: get_model(SMALL, seed=seed),
                        LARGE: get_model(LARGE, seed=seed)}
    return ClusterSimulator(ClusterConfig(
        deployments=[
            ModelDeployment(models[SMALL], replicas=small_replicas),
            ModelDeployment(models[LARGE], replicas=1),
        ],
        gpu_budget=16,
    ))


def main() -> None:
    dataset = SyntheticDataset("natural_questions", scale=0.001, seed=3)
    trace = evaluation_trace(duration_minutes=30, mean_rps=2.5, seed=3)
    times = trace.arrival_times(seed=3)
    arrivals = list(zip(times, dataset.online_requests(len(times))))
    print(f"trace: {len(arrivals)} requests over {trace.duration_seconds / 60:.0f} min "
          f"(peak/trough {trace.peak_to_trough():.1f}x)")

    # --- IC-Cache on the event runtime ------------------------------------
    # Three sources on one deterministic loop: trace arrivals, the live
    # autoscaler (starts at 4 small replicas and earns the rest from the
    # bias signal, inside the 16-GPU budget), and online cache maintenance
    # every 5 simulated minutes.
    service = ICCacheService(ICCacheConfig(
        seed=3, manager=ManagerConfig(sanitize=False),
    ))
    service.seed_cache(dataset.example_bank_requests()[:400])
    sim = build_cluster(service.models, seed=3,
                        small_replicas=START_SMALL_REPLICAS)
    autoscale = AutoscalerTickSource(
        BiasAutoscaler(cooldown_steps=2, ema_alpha=0.3),
        SMALL, service.router.current_bias,
        interval_s=15.0, horizon_s=trace.duration_seconds + 60.0,
    )
    maintenance = MaintenanceTickSource(
        service, interval_s=300.0, horizon_s=trace.duration_seconds,
    )
    ic_report = sim.run_sources(
        [TraceArrivalSource(arrivals, service.pipeline.route_batch),
         autoscale, maintenance],
        on_complete=service.pipeline.on_complete,
    )

    # --- static baselines ---------------------------------------------------
    small_report = build_cluster(seed=3).run(
        arrivals, lambda rs, s: [(SMALL, []) for _ in rs])
    large_report = build_cluster(seed=3).run(
        arrivals, lambda rs, s: [(LARGE, []) for _ in rs])

    print(f"\n{'policy':<14} {'offload':>8} {'mean lat (s)':>13} "
          f"{'p99 (s)':>9} {'mean quality':>13}")
    for name, report in [("IC-Cache", ic_report), ("always-2B", small_report),
                         ("always-27B", large_report)]:
        summary = report.latency_summary()
        quality = np.mean([r.quality for r in report.records])
        print(f"{name:<14} {report.offload_ratio({SMALL}):>8.2f} "
              f"{summary.mean:>13.2f} {summary.p99:>9.2f} {quality:>13.3f}")

    series = windowed_series(ic_report, 60.0, offload_ratio_fn({SMALL}))
    print("\nIC-Cache per-minute offload ratio (router adapting online):")
    bars = "".join("#" if v > 0.8 else "+" if v > 0.5 else "." for v in series.values)
    print(f"  {bars}")
    print("  (. <50%  + 50-80%  # >80% of the minute's requests offloaded)")

    replicas = replica_series(ic_report, SMALL, START_SMALL_REPLICAS)
    steps = ", ".join(f"t={t:.0f}s:{int(v)}"
                      for t, v in zip(replicas.times, replicas.values))
    print(f"\nsmall-tier replicas (live autoscaling, 16-GPU budget): {steps}")
    for pass_summary in maintenance.history:
        print(f"maintenance @ {pass_summary['time_s']:.0f}s: "
              f"evicted={pass_summary['evicted']} "
              f"replayed={pass_summary['replayed']} "
              f"improved={pass_summary['improved']} "
              f"cache={pass_summary['examples']} examples")


if __name__ == "__main__":
    main()
