"""Adversarial-load serving benchmarks: shedding is worth its refusals.

Runs the same flash-crowd storm against an unbounded cluster and a
queue-depth-capped one, and asserts the operational claim behind
``ClusterConfig.max_queue_depth``: shedding trades a bounded fraction of
refused requests for a bounded queue wait for everyone admitted.  A
topic-burst stream is also pushed through the IVF-backed
service to confirm correlated admissions keep the index healthy (churn
does not break retrieval).
"""

from __future__ import annotations

from harness import make_service

from repro.runtime import TraceArrivalSource
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.adversarial import (
    FlashCrowd,
    correlated_topic_requests,
    flash_crowd_trace,
)

SEED = 7
BANK = 200


def _storm_report(max_queue_depth):
    service, dataset = make_service("ms_marco", scale=0.0005, seed=SEED,
                                    seed_limit=BANK)
    trace = flash_crowd_trace(
        60, 1.0,
        [FlashCrowd(at_s=10, ramp_s=5, hold_s=15, decay_s=10,
                    step_mult=10.0, spike_mult=5.0)],
        seed=2,
    )
    sim = ClusterSimulator(ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=4),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=max_queue_depth))
    arrivals = TraceArrivalSource.from_trace(
        trace, dataset.online_requests(200),
        service.pipeline.route_batch, seed=4)
    report = sim.run_sources([arrivals],
                             on_complete=service.pipeline.on_complete)
    return report, arrivals.emitted


def test_shedding_bounds_tail_latency_under_flash_crowd():
    unbounded, emitted_u = _storm_report(None)
    capped, emitted_c = _storm_report(4)
    assert emitted_u == emitted_c  # identical arrival storms

    assert unbounded.shed_rate == 0.0
    assert 0 < capped.shed_rate < 0.6  # refusals stay a bounded fraction

    def max_wait(report):
        return max(r.start_s - r.arrival_s for r in report.records)

    # The whole point of the cap: admitted requests' queue wait is
    # bounded.  (End-to-end p99 is NOT guaranteed to improve — shedding
    # shifts the load-aware routing mix toward the slower large model.)
    assert max_wait(unbounded) > 2.0  # the storm really did pile up
    assert max_wait(capped) < 0.5 * max_wait(unbounded)
    slo = capped.slo_report()
    assert slo["n_served"] + slo["n_shed"] == emitted_c
    # Refusals happen during the crowd, not in the quiet tails.
    assert all(10.0 <= t for t, _model in slo["shed_timeline"])


def test_correlated_topic_bursts_thrash_but_do_not_break_retrieval():
    service, dataset = make_service("ms_marco", scale=0.0005, seed=SEED,
                                    seed_limit=BANK)
    requests = correlated_topic_requests(dataset, 120, mean_burst=10.0,
                                         n_hot_topics=4, seed=1)
    outcomes = [service.serve(r, load=0.3) for r in requests]
    assert len(outcomes) == len(requests)
    # Correlated admissions concentrate churn into a few clusters; the
    # service must keep retrieving examples throughout.
    with_examples = sum(1 for o in outcomes if o.examples)
    assert with_examples > len(outcomes) * 0.8
