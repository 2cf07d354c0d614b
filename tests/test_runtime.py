"""Unit tests for the event runtime: loop determinism and the sources."""

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.llm.zoo import get_model
from repro.runtime import (
    AutoscalerTickSource,
    CheckpointTickSource,
    EventLoop,
    MaintenanceTickSource,
    TraceArrivalSource,
)
from repro.serving.autoscaler import BiasAutoscaler
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.datasets import SyntheticDataset

from tests.conftest import make_request


def small_cluster(replicas_small=2, replicas_large=1, budget=None):
    return ClusterSimulator(ClusterConfig(
        deployments=[
            ModelDeployment(get_model("gemma-2-2b"), replicas=replicas_small),
            ModelDeployment(get_model("gemma-2-27b"), replicas=replicas_large),
        ],
        gpu_budget=budget,
    ))


def ignore(_) -> None:
    pass


def always(model_name):
    return lambda requests, sim: [(model_name, []) for _ in requests]


class TestEventLoop:
    def test_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, seen.append, "late")
        loop.schedule(1.0, seen.append, "early")
        loop.run()
        assert seen == ["early", "late"]
        assert loop.now == 2.0

    def test_same_time_ties_break_by_scheduling_order(self):
        # The determinism contract: equal timestamps dispatch in insertion
        # order, regardless of payload content or hash seed.
        loop = EventLoop()
        seen = []
        for i in range(50):
            loop.schedule(1.0, seen.append, i)
        loop.run()
        assert seen == list(range(50))

    def test_handlers_can_schedule_followups(self):
        loop = EventLoop()
        seen = []

        def chain(n: int) -> None:
            seen.append((loop.now, n))
            if n < 3:
                loop.schedule(loop.now + 1.0, chain, n + 1)

        loop.schedule(0.0, chain, 0)
        loop.run()
        assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_schedule_into_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, ignore)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, ignore)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        # A NaN stamp used to be accepted and scrambled the heap: events at
        # [2.0, nan, 1.0, 0.5, 3.0] dispatched as 1.0, 2.0, 0.5, nan, 3.0,
        # running ``now`` backwards.  Infinity parked the clock for good.
        loop = EventLoop()
        seen = []
        mark = lambda _: seen.append(loop.now)  # noqa: E731
        for t in (2.0, 1.0, 0.5, 3.0):
            loop.schedule(t, mark)
        with pytest.raises(ValueError, match="finite"):
            loop.schedule(bad, mark)
        assert loop.scheduled == 4
        loop.run()
        assert seen == [0.5, 1.0, 2.0, 3.0]

    def test_counters(self):
        loop = EventLoop()
        for t in range(5):
            loop.schedule(float(t), ignore)
        assert len(loop) == 5 and loop.scheduled == 5
        assert loop.run() == 5
        assert loop.processed == 5 and len(loop) == 0
        assert loop.step() is False

    def test_run_returns_per_call_count_on_reuse(self):
        loop = EventLoop()
        for t in range(5):
            loop.schedule(float(t), ignore)
        assert loop.run() == 5
        for t in range(3):
            loop.schedule(loop.now + 1.0 + t, ignore)
        assert loop.run() == 3          # this call's events, not the total
        assert loop.processed == 8      # lifetime total


class TestTraceArrivalSource:
    def test_one_router_shape(self):
        # The per-request router= and the sink= consumer are gone: a source
        # takes one batch router and an optional policy.
        with pytest.raises(TypeError):
            TraceArrivalSource([], router=always("m"))
        with pytest.raises(TypeError):
            TraceArrivalSource([], always("m"), sink=object())

    def test_run_sources_matches_run(self):
        # run() is now a thin composition over run_sources(); both must
        # produce identical reports for the same arrival sequence.
        arrivals = [(i * 0.1, make_request(request_id=f"r{i}"))
                    for i in range(30)]
        via_run = small_cluster().run(arrivals, always("gemma-2-2b"))
        sim = small_cluster()
        via_sources = sim.run_sources(
            [TraceArrivalSource(arrivals, always("gemma-2-2b"))]
        )
        snap = lambda rep: [(r.request_id, r.start_s, r.finish_s)  # noqa: E731
                            for r in rep.records]
        assert snap(via_run) == snap(via_sources)
        assert sim.events_processed == 2 * len(arrivals)  # arrival + finish

    def test_reused_simulator_accumulates_report_and_event_count(self):
        # Back-to-back runs on one simulator accumulate (the pre-runtime
        # semantics): records, scaling timeline, and events_processed all
        # grow together rather than drifting out of sync.
        sim = small_cluster()
        first = [(i * 0.1, make_request(request_id=f"a{i}")) for i in range(5)]
        second = [(i * 0.1, make_request(request_id=f"b{i}"))
                  for i in range(3)]
        sim.run_sources([TraceArrivalSource(first, always("gemma-2-2b"))])
        assert sim.report.n == 5 and sim.events_processed == 10
        sim.run_sources([TraceArrivalSource(second,
                                            always("gemma-2-2b"))])
        assert sim.report.n == 8 and sim.events_processed == 16

    def test_two_arrival_sources_compose_on_one_loop(self):
        # Foreground trace + background load: two sources of one class,
        # each scheduling its own bound methods, stay independent.
        fg = [(i * 0.2, make_request(request_id=f"fg{i}")) for i in range(10)]
        bg = [(0.1 + i * 0.5, make_request(request_id=f"bg{i}"))
              for i in range(4)]
        sim = small_cluster()
        fg_source = TraceArrivalSource(fg, always("gemma-2-2b"))
        bg_source = TraceArrivalSource(bg, always("gemma-2-27b"))
        report = sim.run_sources([fg_source, bg_source])
        assert report.n == 14
        assert fg_source.emitted == 10 and bg_source.emitted == 4
        by_model = report.by_model()
        assert by_model["gemma-2-2b"].n == 10
        assert by_model["gemma-2-27b"].n == 4

    def test_from_trace_pairs_times_with_requests(self):
        from repro.workload.trace import poisson_trace

        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=1)
        trace = poisson_trace(duration_s=60.0, rate_rps=1.0)
        requests = dataset.online_requests(200)
        source = TraceArrivalSource.from_trace(
            trace, requests, always("gemma-2-2b"), seed=4
        )
        times = [t for t, _ in source.arrivals]
        assert times == sorted(times)
        assert len(source.arrivals) <= 200
        report = small_cluster().run_sources([source])
        assert report.n == len(source.arrivals)


class TestAutoscalerTickSource:
    def test_ticks_respect_horizon_and_record_history(self):
        sim = small_cluster(budget=16)
        ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0), "gemma-2-2b",
            bias_fn=lambda: 0.0, interval_s=1.0, horizon_s=5.0,
        )
        sim.run_sources([ticks])
        assert [s.time_s for s in ticks.history] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(s.total_gpus <= 16 for s in ticks.history)

    def test_fractional_interval_keeps_the_final_tick(self):
        # Grid-computed tick times: accumulating floats would drop the tick
        # at t=0.3 (0.1+0.1+0.1 > 0.3 in binary).
        sim = small_cluster()
        ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0), "gemma-2-2b",
            bias_fn=lambda: 0.0, interval_s=0.1, horizon_s=0.3,
        )
        sim.run_sources([ticks])
        assert len(ticks.history) == 3
        assert ticks.history[-1].time_s == pytest.approx(0.3)

    def test_two_tick_sources_compose_on_one_loop(self):
        # Autoscalers on both tiers tick on one loop.
        sim = small_cluster(budget=None)
        small_ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0, ema_alpha=1.0), "gemma-2-2b",
            bias_fn=lambda: 3.0, interval_s=1.0, horizon_s=3.0,
        )
        large_ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0, ema_alpha=1.0), "gemma-2-27b",
            bias_fn=lambda: 3.0, interval_s=1.0, horizon_s=3.0,
        )
        sim.run_sources([small_ticks, large_ticks])
        assert len(small_ticks.history) == len(large_ticks.history) == 3
        assert sim.deployment("gemma-2-2b").replicas > 2
        assert sim.deployment("gemma-2-27b").replicas > 1

    def test_sustained_bias_grows_replicas_within_budget(self):
        # 2 small replicas (1 GPU each) + one 27B replica (8 GPUs) under a
        # 16-GPU budget: headroom is 6 more small replicas, never more.
        sim = small_cluster(replicas_small=2, budget=16)
        ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0, ema_alpha=1.0), "gemma-2-2b",
            bias_fn=lambda: 3.0, interval_s=1.0, horizon_s=30.0,
        )
        sim.run_sources([ticks])
        assert sim.deployment("gemma-2-2b").replicas == 8
        assert sim.total_gpus() == 16
        assert max(s.total_gpus for s in ticks.history) <= 16
        clamped = [s for s in ticks.history
                   if s.decision.replicas_delta > s.applied_delta]
        assert clamped, "the budget clamp never engaged"

    def test_bias_fn_read_live_not_snapshotted(self):
        # The signal callable must be consulted at every tick, so mid-run
        # changes (ablation toggles, router learning) take effect.
        sim = small_cluster(budget=None)
        biases = iter([0.0, 0.0, 3.0, 3.0, 3.0, 3.0])
        ticks = AutoscalerTickSource(
            BiasAutoscaler(cooldown_steps=0, ema_alpha=1.0), "gemma-2-2b",
            bias_fn=lambda: next(biases), interval_s=1.0, horizon_s=6.0,
        )
        sim.run_sources([ticks])
        actions = [s.decision.action for s in ticks.history]
        assert actions[0] != "scale_up" and "scale_up" in actions


class TestTickTrain:
    @pytest.mark.parametrize("make", [
        lambda **t: AutoscalerTickSource(BiasAutoscaler(), "gemma-2-2b",
                                         bias_fn=lambda: 0.0, **t),
        lambda **t: MaintenanceTickSource(None, **t),
        lambda **t: CheckpointTickSource(None, **t),
    ], ids=["autoscaler", "maintenance", "checkpoint"])
    @pytest.mark.parametrize("field", ["interval_s", "horizon_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_tick_time_that_is_not_finite_is_refused(self, make, field,
                                                       bad):
        # Before: an infinite horizon raised OverflowError, a NaN "cannot
        # convert float NaN to integer", an infinite interval no tick.
        times = {"interval_s": 1.0, "horizon_s": 5.0, field: bad}
        loop = EventLoop()
        with pytest.raises(ValueError, match=field):
            make(**times).attach(loop, small_cluster())
        assert loop.scheduled == 0


class TestMaintenanceTickSource:
    def _service(self) -> tuple[ICCacheService, SyntheticDataset]:
        service = ICCacheService(ICCacheConfig(
            seed=9, manager=ManagerConfig(sanitize=False),
        ))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=9)
        service.seed_cache(dataset.example_bank_requests()[:60])
        return service, dataset

    def test_maintenance_runs_on_cadence_and_advances_clock(self):
        service, dataset = self._service()
        arrivals = [(i * 1.0, r)
                    for i, r in enumerate(dataset.online_requests(30))]
        sim = ClusterSimulator(ClusterConfig(deployments=[
            ModelDeployment(service.models[service.small_name], replicas=4),
            ModelDeployment(service.models[service.large_name], replicas=1),
        ]))
        maintenance = MaintenanceTickSource(service, interval_s=10.0,
                                            horizon_s=30.0)
        report = sim.run_sources(
            [TraceArrivalSource(arrivals, service.pipeline.route_batch),
             maintenance],
            on_complete=service.pipeline.on_complete,
        )
        assert report.n == 30
        assert [h["time_s"] for h in maintenance.history] == [10.0, 20.0, 30.0]
        assert service.clock.now >= 30.0

    @pytest.mark.parametrize("reuse", [0.0, float("nan"), float("inf")])
    def test_a_refused_pass_has_run_no_part_of_itself(self, reuse):
        service, dataset = self._service()
        for request in dataset.online_requests(20):
            service.serve(request, load=0.2)
        service.clock.advance_to(7200.0)   # two decay periods due
        columns = ("gain_ema__value", "offload_gain__value")
        gains = [service.cache.table.col(c).copy() for c in columns]
        size = len(service.cache)
        last_decay = service.manager._last_decay
        with pytest.raises(ValueError, match="expected_reuse"):
            service.run_maintenance(replay=True, expected_reuse=reuse)
        assert service.manager._last_decay == last_decay
        assert len(service.cache) == size
        for column, before in zip(columns, gains):
            np.testing.assert_array_equal(
                service.cache.table.col(column), before)

    def test_replay_pass_touches_cache_online(self):
        service, dataset = self._service()
        # Repurpose some examples first so replay has gain estimates.
        for request in dataset.online_requests(30):
            service.serve(request, load=0.2)
        outcome = service.run_maintenance(replay=True)
        assert outcome["examples"] == len(service.cache)
        assert outcome["replayed"] >= 0

    def test_on_maintenance_hook_fires_through_middleware_chain(self):
        from repro.pipeline.middleware import LearningHook
        from repro.pipeline.protocols import ServeMiddleware

        class Recorder(ServeMiddleware):
            def __init__(self):
                self.maintenance_calls = 0

            def on_maintenance(self, service) -> None:
                self.maintenance_calls += 1

        service, _ = self._service()
        recorder = Recorder()
        service.pipeline.middlewares.append(recorder)
        # LearningHook ordering preserved: the hook list is untouched by
        # maintenance, and maintenance dispatch walks it in order.
        assert any(isinstance(m, LearningHook)
                   for m in service.pipeline.middlewares)
        service.run_maintenance(replay=False)
        assert recorder.maintenance_calls == 1


class TestComposedDeterminism:
    def test_full_scenario_is_bit_stable_across_runs(self):
        """Arrivals + autoscaling + maintenance: same seeds, same bits."""

        def run_once():
            service = ICCacheService(ICCacheConfig(
                seed=13, manager=ManagerConfig(sanitize=False),
            ))
            dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=13)
            service.seed_cache(dataset.example_bank_requests()[:60])
            arrivals = [(i * 0.5, r)
                        for i, r in enumerate(dataset.online_requests(40))]
            sim = ClusterSimulator(ClusterConfig(deployments=[
                ModelDeployment(service.models[service.small_name], replicas=2),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ], gpu_budget=16))
            sources = [
                TraceArrivalSource(arrivals, service.pipeline.route_batch),
                AutoscalerTickSource(
                    BiasAutoscaler(cooldown_steps=1), service.small_name,
                    service.router.current_bias,
                    interval_s=2.0, horizon_s=25.0,
                ),
                MaintenanceTickSource(service, interval_s=8.0,
                                      horizon_s=25.0),
            ]
            report = sim.run_sources(sources,
                                     on_complete=service.pipeline.on_complete)
            return ([(r.request_id, r.model_name, r.quality, r.finish_s)
                     for r in report.records],
                    [(e.time_s, e.applied_delta, e.replicas)
                     for e in report.scaling])

        assert run_once() == run_once()


class TestIncrementalRun:
    """The gateway-facing incremental primitives: ``run_until``,
    ``start_sources`` / ``advance_to`` / ``run_pending``."""

    def test_run_until_dispatches_strictly_before_watermark(self):
        loop = EventLoop()
        seen = []
        for t in (1.0, 2.0, 3.0):
            loop.schedule(t, seen.append, t)
        assert loop.run_until(2.0) == 1      # only t=1.0 fires
        assert seen == [1.0]
        assert loop.now == 2.0               # watermark advances anyway
        assert loop.run_until(2.0) == 0      # idempotent at the watermark
        assert loop.run() == 2               # the rest still dispatches

    def test_run_until_rejects_time_travel(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.run_until(4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_run_until_rejects_a_watermark_that_is_not_finite(self, bad):
        # Before: ``now`` landed on NaN (every later schedule refused) or
        # on infinity, parking the clock for good.
        loop = EventLoop()
        loop.schedule(1.0, ignore)
        with pytest.raises(ValueError, match="finite"):
            loop.run_until(bad)
        assert loop.now == 0.0 and len(loop) == 1

    def test_same_time_work_precedes_pending_finish(self):
        # The tie-break contract behind gateway<->simulator equivalence: a
        # finish scheduled *at* the new watermark stays queued across
        # run_until (strict bound), so inline work the caller performs at
        # that instant — the gateway routing an injected arrival — happens
        # before it, exactly as a pre-scheduled arrival (lower insertion
        # seq) would on the batch path.
        loop = EventLoop()
        order = []
        loop.schedule(1.0, order.append, "finish")
        loop.run_until(1.0)                  # finish stays queued
        order.append("arrival")              # inline injection at t=1.0
        loop.run()
        assert order == ["arrival", "finish"]

    def test_incremental_feed_matches_batch_run(self):
        """Feeding arrivals by hand through start_sources/advance_to is
        bit-identical to the pre-scheduled batch run."""

        def build():
            service = ICCacheService(ICCacheConfig(
                seed=13, manager=ManagerConfig(sanitize=False),
            ))
            dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=13)
            service.seed_cache(dataset.example_bank_requests()[:60])
            arrivals = [(i * 0.25, r)
                        for i, r in enumerate(dataset.online_requests(40))]
            sim = ClusterSimulator(ClusterConfig(deployments=[
                ModelDeployment(service.models[service.small_name], replicas=2),
                ModelDeployment(service.models[service.large_name], replicas=1),
            ]))
            return service, sim, arrivals

        def snap(report):
            return [(r.request_id, r.model_name, r.quality, r.finish_s)
                    for r in report.records]

        service_a, sim_a, arrivals_a = build()
        sim_a.run(arrivals_a, service_a.pipeline.route_batch,
                  on_complete=service_a.pipeline.on_complete)

        service_b, sim_b, arrivals_b = build()
        route_batch = service_b.pipeline.route_batch
        sim_b.start_sources([], on_complete=service_b.pipeline.on_complete)
        for t, request in arrivals_b:
            sim_b.advance_to(t)
            sim_b.dispatch([(request, t)], route_batch([request], sim_b))
        sim_b.run_pending()

        assert snap(sim_a.report) == snap(sim_b.report)

    def test_advance_requires_an_open_run(self):
        sim = small_cluster()
        with pytest.raises(RuntimeError):
            sim.advance_to(1.0)
        with pytest.raises(RuntimeError):
            sim.run_pending()
