"""Properties of the adversarial workload generators.

Two families of guarantee:

* **seed-stability** — every generator is a pure function of
  ``(parameters, seed)``; regenerating with the same inputs is
  bit-identical (``np.array_equal``, not ``allclose``).  This is the
  foundation the chaos suite's bit-identity pin stands on.
* **shape** — flash crowds raise the mean above base and revert after the
  episode, tenant skew concentrates over time and rows stay stochastic,
  topic bursts land inside their windows, composites honour maintenance
  windows, and every trace expands to sorted in-range arrival times.

Parameters are drawn from ``tests.strategies`` (profile-scaled via
``HYPOTHESIS_PROFILE``; see ``docs/TESTING.md``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.workload.adversarial import (
    FlashCrowd,
    correlated_topic_requests,
    flash_crowd_trace,
)
from repro.workload.datasets import SyntheticDataset
from tests.adversarial_traces import (
    composite_trace,
    tenant_skew_trace,
    topic_burst_trace,
)
from tests.strategies import (
    DETERMINISM,
    STANDARD,
    adversarial_traces,
    composite_traces,
    flash_crowd_traces,
    seeds,
    tenant_skew_traces,
    topic_burst_traces,
)


class TestSeedStability:
    @settings(**DETERMINISM)
    @given(seed=seeds())
    def test_flash_crowd_trace_bit_identical(self, seed: int):
        crowds = [FlashCrowd(at_s=20.0, spike_mult=2.0)]
        a = flash_crowd_trace(120, 2.0, crowds, burstiness=0.8, seed=seed)
        b = flash_crowd_trace(120, 2.0, crowds, burstiness=0.8, seed=seed)
        assert np.array_equal(a.rates_per_second, b.rates_per_second)

    @settings(**DETERMINISM)
    @given(seed=seeds())
    def test_tenant_skew_trace_bit_identical(self, seed: int):
        a = tenant_skew_trace(300, 2.0, rotate_hot_every_s=60.0, seed=seed)
        b = tenant_skew_trace(300, 2.0, rotate_hot_every_s=60.0, seed=seed)
        assert np.array_equal(a.rates_per_second, b.rates_per_second)
        assert np.array_equal(a.tenant_shares, b.tenant_shares)
        assert np.array_equal(a.zipf_exponents, b.zipf_exponents)

    @settings(**DETERMINISM)
    @given(seed=seeds())
    def test_topic_burst_trace_bit_identical(self, seed: int):
        a = topic_burst_trace(200, 2.0, seed=seed)
        b = topic_burst_trace(200, 2.0, seed=seed)
        assert np.array_equal(a.rates_per_second, b.rates_per_second)
        assert a.burst_windows == b.burst_windows

    @settings(**DETERMINISM)
    @given(seed=seeds())
    def test_composite_trace_bit_identical(self, seed: int):
        a = composite_trace(days=2, seconds_per_day=600, seed=seed)
        b = composite_trace(days=2, seconds_per_day=600, seed=seed)
        assert np.array_equal(a.trace.rates_per_second,
                              b.trace.rates_per_second)
        assert a.crowds == b.crowds
        assert a.maintenance_windows == b.maintenance_windows

    @settings(**DETERMINISM)
    @given(seed=seeds())
    def test_correlated_requests_bit_identical(self, seed: int):
        def generate():
            # Fresh dataset each time: generation is call-order dependent.
            dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=3)
            return correlated_topic_requests(dataset, 40, seed=seed)

        a, b = generate(), generate()
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert [r.topic_id for r in a] == [r.topic_id for r in b]
        assert all(np.array_equal(x.latent, y.latent)
                   for x, y in zip(a, b))


class TestFlashCrowd:
    def test_multiplier_shape(self):
        crowd = FlashCrowd(at_s=100, ramp_s=10, hold_s=20, decay_s=10,
                           step_mult=5.0)
        t = np.array([0.0, 99.9, 105.0, 120.0, 139.9, 140.1, 500.0])
        m = crowd.multiplier_at(t)
        assert m[0] == m[1] == 1.0          # before the episode
        assert 1.0 < m[2] < 5.0             # mid-ramp
        assert m[3] == pytest.approx(5.0)   # holding
        assert 1.0 < m[4] < 5.0             # decaying
        assert m[5] == m[6] == 1.0          # after

    def test_spike_adds_onset_transient(self):
        flat = FlashCrowd(at_s=50, ramp_s=5, hold_s=10, decay_s=5,
                          step_mult=3.0)
        spiky = FlashCrowd(at_s=50, ramp_s=5, hold_s=10, decay_s=5,
                           step_mult=3.0, spike_mult=4.0)
        t = np.array([50.0, 52.0, 69.9])
        extra = spiky.multiplier_at(t) - flat.multiplier_at(t)
        assert extra[0] == pytest.approx(4.0)   # full spike at onset
        assert 0 < extra[1] < extra[0]          # fading
        assert extra[2] < extra[1]              # nearly gone by the end

    def test_validation(self):
        with pytest.raises(ValueError, match="step_mult"):
            FlashCrowd(at_s=0, step_mult=0.5)
        with pytest.raises(ValueError, match="at_s"):
            FlashCrowd(at_s=-1)

    @settings(**STANDARD)
    @given(trace=flash_crowd_traces())
    def test_trace_properties(self, trace):
        assert (trace.rates_per_second >= 0).all()
        assert trace.duration_seconds > 0

    def test_crowds_raise_mean_above_base(self):
        base = 2.0
        trace = flash_crowd_trace(
            200, base, [FlashCrowd(at_s=50, step_mult=10.0)], seed=1)
        assert trace.rates_per_second.mean() > base
        # Quiet buckets still sit at the base rate (no renormalization).
        assert trace.rates_per_second[0] == pytest.approx(base)


class TestTenantSkew:
    @settings(**STANDARD)
    @given(trace=tenant_skew_traces())
    def test_shares_are_distributions(self, trace):
        assert trace.tenant_shares.shape == (
            len(trace.rates_per_second), trace.n_tenants)
        np.testing.assert_allclose(trace.tenant_shares.sum(axis=1), 1.0)
        assert (trace.tenant_shares >= 0).all()

    def test_skew_concentrates_over_time(self):
        trace = tenant_skew_trace(1200, 2.0, zipf_start=0.8, zipf_end=2.2,
                                  burstiness=0.0, seed=4)
        hot = trace.tenant_shares.max(axis=1)   # the hot tenant's share
        # Later thirds are strictly more concentrated than the first.
        third = len(hot) // 3
        assert hot[-third:].mean() > hot[:third].mean()
        assert trace.zipf_exponents[0] < trace.zipf_exponents[-1]

    def test_rotation_moves_the_hot_tenant(self):
        trace = tenant_skew_trace(600, 2.0, zipf_start=1.8, zipf_end=1.8,
                                  rotate_hot_every_s=100.0, burstiness=0.0,
                                  seed=4, bucket_seconds=10.0)
        hot_ids = trace.tenant_shares.argmax(axis=1)
        assert len(set(hot_ids.tolist())) > 1

    def test_mean_is_normalized(self):
        trace = tenant_skew_trace(600, 3.5, seed=9)
        assert trace.rates_per_second.mean() == pytest.approx(3.5)


class TestTopicBursts:
    @settings(**STANDARD)
    @given(trace=topic_burst_traces())
    def test_windows_inside_trace(self, trace):
        for start, end in trace.burst_windows:
            assert 0 <= start < end <= trace.duration_seconds + 1e-9

    def test_rate_elevated_inside_windows(self):
        trace = topic_burst_trace(400, 2.0, n_bursts=3, burst_mult=6.0,
                                  bucket_seconds=1.0, seed=2)
        t = (np.arange(len(trace.rates_per_second)) + 0.5) * trace.bucket_seconds
        inside = np.zeros(len(t), dtype=bool)
        for start, end in trace.burst_windows:
            inside |= (t >= start) & (t < end)
        assert trace.rates_per_second[inside].min() > \
            trace.rates_per_second[~inside].max()

    def test_correlated_requests_arrive_in_runs(self):
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=3)
        requests = correlated_topic_requests(dataset, 200, mean_burst=10.0,
                                             n_hot_topics=4, seed=1)
        assert len(requests) == 200
        topics = [r.topic_id for r in requests]
        assert len(set(topics)) <= 4
        # Far fewer topic switches than a shuffled stream would show.
        switches = sum(1 for a, b in zip(topics, topics[1:]) if a != b)
        assert switches < len(topics) / 3


class TestComposite:
    @settings(**STANDARD)
    @given(composite=composite_traces())
    def test_structure(self, composite):
        assert composite.duration_s == pytest.approx(
            composite.trace.duration_seconds)
        for start, end in composite.maintenance_windows:
            assert 0 <= start < end <= composite.duration_s
        for crowd in composite.crowds:
            assert 0 <= crowd.at_s <= composite.duration_s

    def test_maintenance_windows_dip(self):
        deep = composite_trace(days=2, seconds_per_day=600,
                               maintenance_depth=0.1, crowds_per_day=0,
                               burstiness=0.0, bucket_seconds=5.0, seed=6)
        t = (np.arange(len(deep.trace.rates_per_second)) + 0.5) * \
            deep.trace.bucket_seconds
        inside = np.zeros(len(t), dtype=bool)
        for start, end in deep.maintenance_windows:
            inside |= (t >= start) & (t < end)
        assert deep.trace.rates_per_second[inside].mean() < \
            0.5 * deep.trace.rates_per_second[~inside].mean()


class TestArrivalExpansion:
    @settings(**STANDARD)
    @given(trace=adversarial_traces(), seed=seeds())
    def test_arrival_times_sorted_and_bounded(self, trace, seed: int):
        times = trace.arrival_times(seed=seed)
        assert np.array_equal(times, np.sort(times))
        if len(times):
            assert times[0] >= 0
            assert times[-1] <= trace.duration_seconds
