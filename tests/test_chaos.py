"""The chaos suite: faults composed onto the deterministic runtime.

Each test composes one or more chaos sources
(:mod:`repro.runtime.chaos`) with ordinary arrival/autoscaler sources on a
:class:`ClusterSimulator` and asserts the failure's observable footprint:
replica kills land in the scaling timeline, slow shards inflate TTFT only
inside their windows, scheduled pipeline faults degrade to bypasses, a
queue-depth cap sheds under a flash crowd, and — the headline —
**a replica kill plus crash-recovery injected mid-flash-crowd finishes
bit-identically across two same-seed runs** (the acceptance pin of the
adversarial-determinism charter; the SLO goldens in
``tests/golden/slo_reports.json`` freeze the same scenarios in time).

Recovery inside a serving storm replays a WAL tail containing
response-generating admissions, which legitimately warns about external
bit-identity (see ``filter_stale_records``); the chaos tests acknowledge
the warning explicitly with ``filterwarnings`` instead of silencing it
globally.
"""

from __future__ import annotations

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.wal import Checkpointer
from repro.runtime import (
    CrashRecoverySource,
    FaultScheduleSource,
    ReplicaKillSource,
    ServiceHolder,
    SlowShardSource,
    TraceArrivalSource,
)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchPolicy
from repro.workload import SyntheticDataset
from repro.workload.adversarial import FlashCrowd, flash_crowd_trace

SEED = 11
BANK = 80


def _build(seed: int = SEED) -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(
        ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _sim(service: ICCacheService,
         max_queue_depth: int | None = None) -> ClusterSimulator:
    return ClusterSimulator(ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=4),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=max_queue_depth))


def _storm_arrivals(dataset: SyntheticDataset, n: int = 150,
                    route_batch=None, seed: int = 7,
                    policy: BatchPolicy | None = None) -> TraceArrivalSource:
    trace = flash_crowd_trace(
        60, 1.0,
        [FlashCrowd(at_s=15, ramp_s=5, hold_s=10, decay_s=10,
                    step_mult=8.0, spike_mult=4.0)],
        seed=3,
    )
    return TraceArrivalSource.from_trace(
        trace, dataset.online_requests(n), route_batch, policy, seed=seed)


class TestReplicaKill:
    def test_kill_and_restore_land_in_scaling_timeline(self):
        service, dataset = _build()
        sim = _sim(service)
        arrivals = _storm_arrivals(dataset,
                                   route_batch=service.pipeline.route_batch)
        kill = ReplicaKillSource(service.small_name, kills=[(18.0, 2)],
                                 restore_after_s=15.0)
        report = sim.run_sources([arrivals, kill],
                                 on_complete=service.pipeline.on_complete)
        deltas = [(e.time_s, e.applied_delta) for e in report.scaling
                  if e.model_name == service.small_name]
        assert (18.0, -2) in deltas
        assert (33.0, 2) in deltas
        assert sim.deployment(service.small_name).replicas == 4
        assert [h["action"] for h in kill.history] == ["kill", "restore"]

    def test_kill_is_clamped_at_one_replica(self):
        service, dataset = _build()
        sim = _sim(service)
        arrivals = _storm_arrivals(dataset, n=20,
                                   route_batch=service.pipeline.route_batch)
        kill = ReplicaKillSource(service.small_name, kills=[(5.0, 99)])
        sim.run_sources([arrivals, kill],
                        on_complete=service.pipeline.on_complete)
        assert sim.deployment(service.small_name).replicas == 1
        assert kill.history[0]["applied_delta"] == -3

    def test_validation(self):
        with pytest.raises(ValueError, match="restore_after_s"):
            ReplicaKillSource("m", kills=[(1.0, 1)], restore_after_s=0.0)
        with pytest.raises(ValueError, match="bad kill"):
            ReplicaKillSource("m", kills=[(1.0, 0)])

    @pytest.mark.parametrize("field", ["at_s", "restore_after_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_time_that_is_not_finite_is_refused(self, field, bad):
        # A NaN restore delay used to pass: the kill removed its replicas,
        # then scheduling the restore raised mid-run and left them removed.
        times = {"at_s": 2.0, "restore_after_s": 5.0, field: bad}
        with pytest.raises(ValueError, match=field):
            ReplicaKillSource("m", kills=[(times["at_s"], 1)],
                              restore_after_s=times["restore_after_s"])


class TestSlowShard:
    def test_penalty_applies_only_inside_windows(self):
        def run(slow_source):
            service, dataset = _build()
            sim = _sim(service)
            arrivals = _storm_arrivals(dataset,
                                       route_batch=service.pipeline.route_batch)
            sources = [arrivals] + ([slow_source] if slow_source else [])
            return sim.run_sources(sources,
                                   on_complete=service.pipeline.on_complete)

        healthy = run(None)
        slow = SlowShardSource([(0.0, 1e9)], penalty_s=1.0)
        degraded = run(slow)
        # Every started request paid the penalty: TTFT floors at 1s where
        # the healthy run's fastest requests sit well under it.
        assert slow.injected == degraded.n
        assert min(r.ttft_s for r in degraded.records) >= 1.0
        assert min(r.ttft_s for r in healthy.records) < 1.0
        assert degraded.ttft_summary().p99 > healthy.ttft_summary().p99

    def test_window_and_model_filters(self):
        service, dataset = _build()
        sim = _sim(service)
        arrivals = _storm_arrivals(dataset,
                                   route_batch=service.pipeline.route_batch)
        slow = SlowShardSource([(100.0, 200.0)], penalty_s=5.0,
                               model_names=[service.large_name])
        report = sim.run_sources([arrivals, slow],
                                 on_complete=service.pipeline.on_complete)
        assert slow.injected == 0  # window never overlaps the run
        assert report.n > 0

    def test_refuses_to_stack(self):
        service, dataset = _build()
        sim = _sim(service)
        a = SlowShardSource([(0.0, 1.0)], penalty_s=0.1)
        b = SlowShardSource([(0.0, 1.0)], penalty_s=0.1)
        arrivals = _storm_arrivals(dataset, n=5,
                                   route_batch=service.pipeline.route_batch)
        with pytest.raises(ValueError, match="already installed"):
            sim.run_sources([arrivals, a, b])

    def test_validation(self):
        with pytest.raises(ValueError, match="penalty_s"):
            SlowShardSource([(0.0, 1.0)], penalty_s=-1.0)
        with pytest.raises(ValueError, match="bad window"):
            SlowShardSource([(5.0, 2.0)], penalty_s=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_penalty_that_is_not_finite_is_refused(self, bad):
        # Accepted before: the first penalized start then asked the loop
        # for a finish at a time that is not finite.
        with pytest.raises(ValueError, match="penalty_s"):
            SlowShardSource([(0.0, 1.0)], penalty_s=bad)


class TestFaultSchedule:
    def test_faults_fire_only_inside_windows(self):
        service, dataset = _build()
        sim = _sim(service)
        holder = ServiceHolder(service)
        faults = FaultScheduleSource(holder,
                                     retrieval_windows=[(20.0, 30.0)])
        arrivals = _storm_arrivals(dataset, route_batch=holder.route_batch)
        report = sim.run_sources([arrivals, faults],
                                 on_complete=holder.on_complete)
        assert report.n > 0
        assert faults.middleware.retrieval_failures > 0
        assert service.stats.bypasses == faults.middleware.retrieval_failures
        # Bypassed requests fall back to the small tier; requests routed
        # outside the window still reach the large model.
        assert any(r.model_name == service.large_name
                   for r in report.records)

    def test_inert_outside_a_run(self):
        service, _ = _build()
        faults = FaultScheduleSource(service,
                                     retrieval_windows=[(0.0, 1e9)])
        # Inline serving before any attach: predicates see no loop, no-op.
        outcome = service.serve(
            SyntheticDataset("ms_marco", scale=0.0005,
                             seed=5).online_requests(1)[0],
            load=0.2,
        )
        assert faults.middleware.retrieval_failures == 0
        assert not outcome.bypassed

    def test_validation(self):
        service, _ = _build()
        with pytest.raises(ValueError, match="bad window"):
            FaultScheduleSource(service, route_windows=[(3.0, 3.0)])


class TestShedding:
    def test_flash_crowd_sheds_at_queue_depth(self):
        service, dataset = _build()
        sim = _sim(service, max_queue_depth=4)
        arrivals = _storm_arrivals(dataset,
                                   route_batch=service.pipeline.route_batch)
        report = sim.run_sources([arrivals],
                                 on_complete=service.pipeline.on_complete)
        assert len(report.shed) > 0
        assert 0 < report.shed_rate < 1
        assert report.n + len(report.shed) == arrivals.emitted
        # Sheds happen in the storm, not the calm opening.
        assert min(e.time_s for e in report.shed) >= 15.0
        slo = report.slo_report()
        assert slo["n_shed"] == len(report.shed)
        assert slo["shed_rate"] == pytest.approx(report.shed_rate)

    def test_unbounded_queue_never_sheds(self):
        service, dataset = _build()
        sim = _sim(service, max_queue_depth=None)
        arrivals = _storm_arrivals(dataset,
                                   route_batch=service.pipeline.route_batch)
        report = sim.run_sources([arrivals],
                                 on_complete=service.pipeline.on_complete)
        assert report.shed == []
        assert report.shed_rate == 0.0
        assert report.n == arrivals.emitted


def _chaos_storm_run(tmp_path, seed: int = SEED):
    """The acceptance scenario: kill + crash-recovery inside a flash crowd.

    One deterministic run composing every chaos source: a flash-crowd
    arrival storm over a shed-bounded cluster, a replica kill (restored
    later), a slow-shard window, scheduled retrieval faults, and a full
    service crash + WAL recovery at t=22s.
    """
    service, dataset = _build(seed)
    holder = ServiceHolder(service)
    checkpointer = Checkpointer(service, tmp_path)
    checkpointer.checkpoint()
    sim = _sim(service, max_queue_depth=6)
    arrivals = _storm_arrivals(dataset, route_batch=holder.route_batch)
    kill = ReplicaKillSource(service.small_name, kills=[(18.0, 2)],
                             restore_after_s=15.0)
    slow = SlowShardSource([(25.0, 40.0)], penalty_s=0.5,
                           model_names=[service.large_name])
    faults = FaultScheduleSource(holder, retrieval_windows=[(20.0, 30.0)])
    crash = CrashRecoverySource(holder, checkpointer, at_s=22.0)
    report = sim.run_sources([arrivals, kill, slow, faults, crash],
                             on_complete=holder.on_complete)
    return report, holder, crash


def _full_snapshot(report) -> list[list]:
    """Every per-record observable, unrounded where exact equality holds."""
    return [[r.request_id, r.model_name, r.arrival_s, r.start_s,
             r.finish_s, r.ttft_s, round(r.quality, 12), r.prompt_tokens,
             r.output_tokens, r.n_examples, round(r.cost, 12)]
            for r in report.records]


@pytest.mark.filterwarnings("ignore:.*bit-identity.*")
class TestChaosDeterminism:
    def test_kill_recover_mid_flash_crowd_bit_identical(self, tmp_path):
        """Two same-seed runs of the full chaos storm agree on everything."""
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        report_a, holder_a, crash_a = _chaos_storm_run(run_a)
        report_b, holder_b, crash_b = _chaos_storm_run(run_b)

        assert _full_snapshot(report_a) == _full_snapshot(report_b)
        assert report_a.scaling == report_b.scaling
        assert report_a.shed == report_b.shed
        assert report_a.slo_report() == report_b.slo_report()
        assert crash_a.history == crash_b.history
        # Both runs recovered once, onto generation 1.
        assert holder_a.generation == holder_b.generation == 1
        # Post-recovery learned state agrees too: the recovered caches hold
        # identical example ids.
        ids_a = sorted(e.example_id for e in holder_a.service.cache)
        ids_b = sorted(e.example_id for e in holder_b.service.cache)
        assert ids_a == ids_b

    def test_crash_swaps_the_live_generation(self, tmp_path):
        report, holder, crash = _chaos_storm_run(tmp_path)
        assert holder.generation == 1
        assert len(crash.history) == 1
        entry = crash.history[0]
        assert entry["time_s"] == 22.0
        assert entry["wal_tail_replayed"] > 0
        # The replacement checkpointer journals the recovered service.
        assert crash.checkpointer.service is holder.service
        assert holder.service.cache.journal is not None
        # Serving continued after the crash.
        assert any(r.arrival_s > 22.0 for r in report.records)

    def test_different_seeds_diverge(self, tmp_path):
        """The pin is meaningful: changing the seed changes the run."""
        report_a, _, _ = _chaos_storm_run(tmp_path / "a", seed=SEED)
        report_b, _, _ = _chaos_storm_run(tmp_path / "b", seed=SEED + 1)
        assert _full_snapshot(report_a) != _full_snapshot(report_b)

    def test_crash_recovery_inside_a_micro_batched_run(self, tmp_path):
        """Micro-batches routed through the holder survive a crash swap:
        batches parked across the crash route on the recovered generation,
        and two same-seed runs agree bit for bit."""

        def run(directory):
            service, dataset = _build()
            holder = ServiceHolder(service)
            checkpointer = Checkpointer(service, directory)
            checkpointer.checkpoint()
            arrivals = _storm_arrivals(
                dataset, route_batch=holder.route_batch,
                policy=BatchPolicy(max_batch=8, max_wait_s=0.25))
            crash = CrashRecoverySource(holder, checkpointer, at_s=22.0)
            report = _sim(service).run_sources(
                [arrivals, crash], on_complete=holder.on_complete)
            return report, holder

        report_a, holder_a = run(tmp_path / "a")
        report_b, holder_b = run(tmp_path / "b")
        assert holder_a.generation == holder_b.generation == 1
        assert report_a.slo_report() == report_b.slo_report()
        assert _full_snapshot(report_a) == _full_snapshot(report_b)
        assert holder_a.service.stats.served == holder_b.service.stats.served
        assert holder_a.service.stats.served > 0
        assert any(r.arrival_s > 22.0 for r in report_a.records)


class TestCrashRecoveryValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_crash_time_that_is_not_finite_is_refused(self, bad):
        # The time is checked before the holder or checkpointer is read.
        with pytest.raises(ValueError, match="at_s"):
            CrashRecoverySource(None, None, at_s=bad)
