"""Define and serve a custom routing policy in ~30 lines.

The pipeline makes every serving policy a plug-in: implement a stage
protocol (here ``RoutingPolicy``), assign an instance to the pipeline's
``routing`` attribute, and any entry point — inline serving, micro-batches,
the cluster simulator — runs it through the same serve loop as IC-Cache
itself.  Run:

    python examples/custom_policy.py
"""

from repro import ICCacheConfig, ICCacheService
from repro.core.config import ManagerConfig
from repro.core.router import RoutingChoice, routing_features
from repro.pipeline.policies import build_routellm
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload import SyntheticDataset


class GoodExampleRouting:
    """Offload to the small model iff retrieval found a strong example.

    A deliberately simple policy: trust the Example Selector's utility
    estimate directly instead of learning a bandit over it.  Anything with
    ``route(ctx) -> RoutingChoice`` plugs in the same way.
    """

    def __init__(self, small_name: str, large_name: str,
                 min_utility: float = 0.05) -> None:
        self.small_name = small_name
        self.large_name = large_name
        self.min_utility = min_utility

    def route(self, ctx) -> RoutingChoice:
        best = max((s.utility for s in ctx.examples), default=0.0)
        name = self.small_name if best >= self.min_utility else self.large_name
        return RoutingChoice(
            model_name=name,
            features=routing_features(ctx.request, ctx.examples),
            mean_scores={}, biased_scores={},
            solicit_feedback=False,
        )


def main() -> None:
    dataset = SyntheticDataset("ms_marco", scale=0.001, seed=9)

    # IC-Cache's retrieval + admission, with routing swapped by assignment.
    service = ICCacheService(
        ICCacheConfig(seed=9, manager=ManagerConfig(sanitize=False)))
    pipeline = service.pipeline
    pipeline.routing = GoodExampleRouting(service.small_name,
                                          service.large_name)
    service.seed_cache(dataset.example_bank_requests()[:300])

    # Inline serving (batch-of-1 and micro-batches share one path).
    contexts = pipeline.run_batch(dataset.online_requests(200), load=0.2)
    stats = pipeline.stats
    print(f"inline: served {stats.served}, offload ratio "
          f"{stats.offload_ratio:.2f}, mean quality {stats.mean_quality:.3f}")

    # The same pipeline drives the cluster simulator unchanged.
    small = pipeline.models[service.small_name]
    large = pipeline.models[service.large_name]
    sim = ClusterSimulator(ClusterConfig(
        deployments=[ModelDeployment(small, replicas=8),
                     ModelDeployment(large, replicas=1)],
        gpu_budget=16,
    ))
    requests = dataset.online_requests(150)
    report = sim.run([(i * 0.2, r) for i, r in enumerate(requests)],
                     pipeline.route_batch,
                     on_complete=pipeline.on_complete)
    print(f"cluster: {report.n} served, offload "
          f"{report.offload_ratio({small.name}):.2f}, "
          f"mean latency {report.latency_summary().mean:.2f}s")

    # A comparison system is one builder call away.
    routellm = build_routellm(ICCacheConfig(seed=9))
    routellm.run_batch(dataset.online_requests(100), load=0.2)
    print(f"routellm (for comparison): offload ratio "
          f"{routellm.stats.offload_ratio:.2f}, mean quality "
          f"{routellm.stats.mean_quality:.3f}")

    offloaded = [c for c in contexts if c.offloaded]
    print(f"custom policy prepended examples on {len(offloaded)} "
          f"offloaded requests")


if __name__ == "__main__":
    main()
