"""Unit tests for the discrete-event serving simulator."""

import numpy as np
import pytest

from repro.llm.zoo import get_model
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.metrics import offload_ratio_fn, windowed_series
from repro.serving.records import ServedRequest, ServingReport

from tests.conftest import make_request


def mean_latency_fn(records: list[ServedRequest]) -> float:
    """Window aggregator: average end-to-end latency."""
    return float(np.mean([r.e2e_latency_s for r in records]))


def record(request_id="r", model="m", arrival=0.0, start=0.0, finish=1.0,
           ttft=0.1, quality=0.5):
    return ServedRequest(
        request_id=request_id, model_name=model, arrival_s=arrival,
        start_s=start, finish_s=finish, ttft_s=ttft, quality=quality,
        prompt_tokens=10, output_tokens=20, n_examples=0, cost=0.01,
    )


def small_cluster(replicas_small=2, replicas_large=1, budget=None):
    return ClusterSimulator(ClusterConfig(
        deployments=[
            ModelDeployment(get_model("gemma-2-2b"), replicas=replicas_small),
            ModelDeployment(get_model("gemma-2-27b"), replicas=replicas_large),
        ],
        gpu_budget=budget,
    ))


def always(model_name):
    return lambda requests, sim: [(model_name, []) for _ in requests]


class TestServedRequest:
    def test_derived_latencies(self):
        r = record(arrival=1.0, start=3.0, finish=10.0, ttft=0.5)
        assert r.queue_wait_s == pytest.approx(2.0)
        assert r.e2e_latency_s == pytest.approx(9.0)
        assert r.observed_ttft_s == pytest.approx(2.5)


class TestServingReport:
    def test_empty(self):
        report = ServingReport()
        assert report.n == 0
        assert report.throughput_rps == 0.0
        assert report.offload_ratio({"m"}) == 0.0

    def test_throughput(self):
        report = ServingReport(records=[
            record(request_id=f"r{i}", arrival=float(i), finish=float(i) + 1.0)
            for i in range(10)
        ])
        assert report.throughput_rps == pytest.approx(10 / 10.0)

    def test_offload_ratio_and_split(self):
        report = ServingReport(records=[
            record(request_id="a", model="small"),
            record(request_id="b", model="small"),
            record(request_id="c", model="large"),
        ])
        assert report.offload_ratio({"small"}) == pytest.approx(2 / 3)
        split = report.by_model()
        assert split["small"].n == 2 and split["large"].n == 1


class TestClusterConfig:
    def test_gpu_budget_enforced(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                deployments=[
                    ModelDeployment(get_model("gemma-2-27b"), replicas=3),
                ],
                gpu_budget=16,   # 3 * 8 GPUs = 24 > 16
            )

    def test_duplicate_models_rejected(self):
        model = get_model("gemma-2-2b")
        with pytest.raises(ValueError):
            ClusterConfig(deployments=[
                ModelDeployment(model, 1), ModelDeployment(model, 1),
            ], gpu_budget=None)

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            ModelDeployment(get_model("gemma-2-2b"), replicas=0)


class TestClusterSimulator:
    def test_single_request_latency_is_service_time(self):
        sim = small_cluster()
        req = make_request()
        report = sim.run([(0.0, req)], always("gemma-2-2b"))
        assert report.n == 1
        rec = report.records[0]
        assert rec.queue_wait_s == pytest.approx(0.0)
        assert rec.e2e_latency_s == pytest.approx(rec.ttft_s + (rec.finish_s - rec.start_s - rec.ttft_s))

    def test_all_requests_complete(self):
        sim = small_cluster()
        arrivals = [(i * 0.1, make_request(request_id=f"r{i}")) for i in range(50)]
        report = sim.run(arrivals, always("gemma-2-2b"))
        assert report.n == 50
        assert len({r.request_id for r in report.records}) == 50

    def test_queueing_under_burst(self):
        # One large replica with limited slots: a burst must queue.
        sim = ClusterSimulator(ClusterConfig(
            deployments=[ModelDeployment(get_model("gemma-2-27b"), replicas=1)],
            gpu_budget=None,
        ))
        arrivals = [(0.0, make_request(request_id=f"r{i}")) for i in range(30)]
        report = sim.run(arrivals, always("gemma-2-27b"))
        waits = [r.queue_wait_s for r in report.records]
        assert max(waits) > 0.0

    def test_more_replicas_reduce_latency(self):
        arrivals = [(i * 0.05, make_request(request_id=f"r{i}")) for i in range(100)]
        few = small_cluster(replicas_small=1).run(
            [(t, r) for t, r in arrivals], always("gemma-2-2b")
        )
        many = small_cluster(replicas_small=8).run(
            [(t, r) for t, r in arrivals], always("gemma-2-2b")
        )
        assert many.latency_summary().p99 <= few.latency_summary().p99

    def test_load_signal_visible_to_router(self):
        sim = small_cluster(replicas_small=1)
        seen_loads = []

        def router(requests, s):
            seen_loads.append(s.total_load())
            return [("gemma-2-2b", [])]

        arrivals = [(0.0, make_request(request_id=f"r{i}")) for i in range(40)]
        sim.run(arrivals, router)
        assert seen_loads[0] == 0.0
        assert max(seen_loads) > 0.5

    def test_on_complete_callback_order(self):
        sim = small_cluster()
        finished = []
        arrivals = [(i * 0.2, make_request(request_id=f"r{i}")) for i in range(10)]
        sim.run(arrivals, always("gemma-2-2b"),
                on_complete=lambda req, rec: finished.append(rec.finish_s))
        assert finished == sorted(finished)
        assert len(finished) == 10

    def test_unknown_model_raises(self):
        sim = small_cluster()
        with pytest.raises(KeyError):
            sim.run([(0.0, make_request())], always("nonexistent-model"))

    def test_total_gpus(self):
        sim = small_cluster(replicas_small=2, replicas_large=1)
        assert sim.total_gpus() == 2 * 1 + 1 * 8


class TestWindowedSeries:
    def test_values_bucketed_by_arrival(self):
        report = ServingReport(records=[
            record(request_id="a", model="s", arrival=10.0),
            record(request_id="b", model="l", arrival=70.0),
            record(request_id="c", model="s", arrival=75.0),
        ])
        series = windowed_series(report, 60.0, offload_ratio_fn({"s"}))
        assert series.values[0] == pytest.approx(1.0)
        assert series.values[1] == pytest.approx(0.5)

    def test_empty_windows_are_nan(self):
        report = ServingReport(records=[
            record(request_id="a", arrival=0.0),
            record(request_id="b", arrival=125.0),
        ])
        series = windowed_series(report, 60.0, mean_latency_fn)
        assert np.isnan(series.values[1])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_series(ServingReport(), 0.0, mean_latency_fn)

    def test_by_finish(self):
        report = ServingReport(records=[record(arrival=0.0, finish=100.0)])
        by_finish = windowed_series(report, 60.0, mean_latency_fn, by="finish")
        assert len(by_finish.values) == 2
        assert np.isnan(by_finish.values[0])


class TestRequestBatcher:
    def test_size_flush(self):
        from repro.serving.engine import BatchPolicy, RequestBatcher

        batcher = RequestBatcher(BatchPolicy(max_batch=3, max_wait_s=1.0))
        assert batcher.add("a", now=0.0) is None
        assert batcher.add("b", now=0.1) is None
        assert batcher.add("c", now=0.2) == ["a", "b", "c"]
        assert len(batcher) == 0
        assert batcher.generation == 1

    def test_deadline_set_on_first_item_and_cleared_on_flush(self):
        from repro.serving.engine import BatchPolicy, RequestBatcher

        batcher = RequestBatcher(BatchPolicy(max_batch=10, max_wait_s=0.5))
        assert batcher.deadline is None
        batcher.add("a", now=2.0)
        assert batcher.deadline == pytest.approx(2.5)
        batcher.add("b", now=2.1)  # deadline pinned to the first item
        assert batcher.deadline == pytest.approx(2.5)
        assert batcher.flush() == ["a", "b"]
        assert batcher.deadline is None

    def test_flush_empty_is_noop(self):
        from repro.serving.engine import RequestBatcher

        batcher = RequestBatcher()
        assert batcher.flush() == []
        assert batcher.generation == 0

    def test_invalid_policy_rejected(self):
        from repro.serving.engine import BatchPolicy

        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)

    @pytest.mark.parametrize("wait", [float("inf"), float("nan")])
    def test_non_finite_wait_rejected(self, wait):
        # An infinite wait used to be accepted: the tail batch flushed at
        # now = inf, its records read start_s = finish_s = inf and the SLO
        # report's p50 latency read nan.
        from repro.serving.engine import BatchPolicy

        with pytest.raises(ValueError, match="finite"):
            BatchPolicy(max_batch=4, max_wait_s=wait)

    def test_default_policy_is_the_batch_of_one(self):
        from repro.serving.engine import BatchPolicy, RequestBatcher

        assert BatchPolicy() == BatchPolicy(max_batch=1, max_wait_s=0.0)
        batcher = RequestBatcher()
        assert batcher.add("a", now=3.0) == ["a"]
        assert batcher.deadline is None and batcher.generation == 1


class TestMicroBatchedRun:
    def test_dispatch_refuses_a_decision_count_mismatch(self):
        # zip() used to pair 3 arrivals with 1 decision: [True], one record,
        # no shed event, and two requests neither served nor shed.
        sim = small_cluster()
        sim.start_sources([])
        arrivals = [(make_request(request_id=f"d{i}"), 0.0) for i in range(3)]
        with pytest.raises(ValueError, match="1 routing decisions for 3"):
            sim.dispatch(arrivals, [("gemma-2-2b", [])])
        sim.run_pending()
        assert sim.report.n == 0 and not sim.report.shed

    def test_short_router_fails_the_run(self):
        with pytest.raises(ValueError, match="routing decisions"):
            small_cluster().run([(0.0, make_request())],
                                lambda requests, sim: [])

    def test_simulator_batches_and_serves_everything(self):
        from repro.serving.engine import BatchPolicy

        seen_batches = []

        def route_batch(requests, sim):
            seen_batches.append(len(requests))
            return [("gemma-2-2b", []) for _ in requests]

        sim = small_cluster()
        arrivals = [(i * 0.01, make_request(request_id=f"q{i}"))
                    for i in range(10)]
        report = sim.run(arrivals, route_batch,
                         policy=BatchPolicy(max_batch=4, max_wait_s=0.5))
        assert report.n == 10
        # 10 arrivals in 0.09s with max_batch=4: two size flushes plus a
        # timeout flush for the tail.
        assert seen_batches == [4, 4, 2]

    def test_timeout_flush_preserves_arrival_times(self):
        from repro.serving.engine import BatchPolicy

        sim = small_cluster()
        arrivals = [(0.0, make_request(request_id="a")),
                    (0.2, make_request(request_id="b"))]
        report = sim.run(arrivals, always("gemma-2-2b"),
                         policy=BatchPolicy(max_batch=100, max_wait_s=0.5))
        assert report.n == 2
        by_id = {r.request_id: r for r in report.records}
        # The batch dispatches at t=0.5; each request's wait reflects its
        # own arrival time.
        assert by_id["a"].queue_wait_s == pytest.approx(0.5)
        assert by_id["b"].queue_wait_s == pytest.approx(0.3)

    def test_batch_of_one_charges_no_wait(self):
        sim = small_cluster()
        arrivals = [(i * 0.1, make_request(request_id=f"p{i}"))
                    for i in range(5)]
        report = sim.run(arrivals, always("gemma-2-2b"))
        assert report.n == 5
        assert all(r.queue_wait_s == pytest.approx(0.0)
                   for r in report.records)
