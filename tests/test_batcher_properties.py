"""Property tests for :class:`RequestBatcher` (micro-batching invariants).

The batcher is clock-free, so the same policy invariants must hold under
two different drivers: a manual harness feeding arbitrary ``now`` values,
and the discrete-event simulator feeding its event clock.  Locked here:

* a batch never exceeds ``max_batch`` items;
* flush order preserves arrival order (concatenating dispatched batches
  reproduces the add sequence exactly);
* ``max_wait_s=0`` dispatches immediately — the deadline equals the add
  time, so no request ever waits on batching;
* the default policy, the batch of one, costs no event: a trace of n
  requests schedules exactly n arrivals and n finishes, no ``flush``.
"""

import numpy as np
import pytest

from repro.llm.zoo import get_model
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchPolicy, RequestBatcher

from tests.conftest import make_request


def drive_manually(policy: BatchPolicy, arrival_times: list[float]) -> list[list]:
    """Feed items at the given times, flushing exactly when deadlines expire.

    This is the wall-clock-server contract: the caller must arrange a
    flush no later than ``batcher.deadline``.  Returns dispatched batches.
    """
    batcher = RequestBatcher(policy)
    batches = []
    for i, now in enumerate(arrival_times):
        if batcher.deadline is not None and batcher.deadline <= now:
            batches.append(batcher.flush())
        full = batcher.add(i, now)
        if full is not None:
            batches.append(full)
    tail = batcher.flush()
    if tail:
        batches.append(tail)
    return batches


class TestManualDrive:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("max_batch,max_wait_s", [
        (1, 0.5), (3, 0.0), (4, 0.05), (8, 0.2), (64, 0.01),
    ])
    def test_invariants_under_random_arrivals(self, seed, max_batch, max_wait_s):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.exponential(0.03, size=200)).tolist()
        policy = BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s)
        batches = drive_manually(policy, times)
        # Size bound.
        assert all(1 <= len(b) <= max_batch for b in batches)
        # Arrival order preserved across flushes.
        flat = [item for batch in batches for item in batch]
        assert flat == list(range(200))

    def test_zero_wait_deadline_is_immediate(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=10, max_wait_s=0.0))
        assert batcher.add("a", now=3.25) is None
        # The open batch expires the instant it opened: a compliant driver
        # flushes before any later-time work, so nothing waits on batching.
        assert batcher.deadline == pytest.approx(3.25)
        assert batcher.flush() == ["a"]

    def test_max_batch_one_always_returns_full(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=1, max_wait_s=9.0))
        for i, now in enumerate([0.0, 0.1, 0.2]):
            assert batcher.add(i, now) == [i]
        assert batcher.generation == 3


class TestSimulatorDrive:
    def _run(self, arrivals, policy=None, sim=None):
        seen_batches = []

        def route_batch(requests, sim):
            seen_batches.append([r.request_id for r in requests])
            return [("gemma-2-2b", []) for _ in requests]

        sim = sim or ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(get_model("gemma-2-2b"), replicas=8),
            ],
            gpu_budget=None,
        ))
        report = sim.run(arrivals, route_batch, policy=policy)
        return report, seen_batches

    @pytest.mark.parametrize("seed", range(3))
    def test_default_policy_costs_no_extra_event(self, seed):
        # Under BatchPolicy() every arrival is its own batch, dispatched
        # inline: n arrivals + n finishes, and no flush timer is ever armed.
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 60))
        times = np.cumsum(rng.exponential(0.02, size=n))
        times[rng.random(n) < 0.3] = times[0]   # some same-instant arrivals
        arrivals = [(float(t), make_request(request_id=f"o{i:03d}"))
                    for i, t in enumerate(np.sort(times))]
        sim = ClusterSimulator(ClusterConfig(
            deployments=[ModelDeployment(get_model("gemma-2-2b"), replicas=1)],
            gpu_budget=None,
        ))
        report, batches = self._run(arrivals, sim=sim)
        assert report.n == n
        assert [len(b) for b in batches] == [1] * n
        assert sim.events_processed == 2 * n

    @pytest.mark.parametrize("seed", range(3))
    def test_invariants_under_simulator_clock(self, seed):
        rng = np.random.default_rng(100 + seed)
        times = np.cumsum(rng.exponential(0.02, size=120))
        arrivals = [(float(t), make_request(request_id=f"r{i:03d}"))
                    for i, t in enumerate(times)]
        policy = BatchPolicy(max_batch=5, max_wait_s=0.07)
        report, batches = self._run(arrivals, policy)
        assert report.n == 120
        assert all(1 <= len(b) <= 5 for b in batches)
        # Flush order preserves arrival order end to end.
        assert [rid for b in batches for rid in b] == \
            [f"r{i:03d}" for i in range(120)]

    def test_zero_wait_dispatches_each_arrival_instant(self):
        # Distinct arrival times + max_wait_s=0: every flush event fires
        # before the next (strictly later) arrival, so batches are size 1
        # and no request is charged any batching delay.
        arrivals = [(0.1 * (i + 1), make_request(request_id=f"z{i}"))
                    for i in range(10)]
        policy = BatchPolicy(max_batch=100, max_wait_s=0.0)
        report, batches = self._run(arrivals, policy)
        assert [len(b) for b in batches] == [1] * 10
        assert all(r.queue_wait_s == pytest.approx(0.0)
                   for r in report.records)

    def test_zero_wait_still_batches_simultaneous_arrivals(self):
        # Same-instant arrivals precede their flush event in the
        # deterministic tie-break (scheduling order), so they share a batch
        # even at zero wait — batching cost stays zero, amortization is free.
        arrivals = [(1.0, make_request(request_id=f"s{i}")) for i in range(4)]
        policy = BatchPolicy(max_batch=100, max_wait_s=0.0)
        report, batches = self._run(arrivals, policy)
        assert batches == [["s0", "s1", "s2", "s3"]]
        assert all(r.queue_wait_s == pytest.approx(0.0)
                   for r in report.records)

    def test_burst_splits_on_size_before_timeout(self):
        arrivals = [(0.0, make_request(request_id=f"b{i}")) for i in range(11)]
        policy = BatchPolicy(max_batch=4, max_wait_s=10.0)
        report, batches = self._run(arrivals, policy)
        assert [len(b) for b in batches] == [4, 4, 3]
        # The tail batch waited for the timeout, charged as queue delay.
        tail = {r.request_id: r for r in report.records}["b10"]
        assert tail.queue_wait_s >= 10.0
