"""Unit tests for distribution drift (section 8) and the bias autoscaler
(section 4.2's auto-scaling signal), including live application of
:class:`ScalingDecision` under the cluster's GPU budget."""

import numpy as np
import pytest

from repro.llm.zoo import get_model
from repro.serving.autoscaler import BiasAutoscaler
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload.datasets import SyntheticDataset
from repro.workload.drift import DriftingWorkload


def net_replicas_delta(scaler: BiasAutoscaler) -> int:
    """The scaler's cumulative recommended change since construction."""
    return sum(d.replicas_delta for d in scaler.actions)


class TestDriftingWorkload:
    def setup_method(self):
        self.dataset = SyntheticDataset("ms_marco", scale=0.001, seed=5)
        self.drift = DriftingWorkload(self.dataset, novel_topic_fraction=0.3,
                                      seed=5)

    def test_phase_zero_avoids_novel_topics(self):
        reqs = self.drift.requests_at_phase(200, phase=0.0)
        assert all(r.topic_id not in self.drift.novel_topics for r in reqs)

    def test_phase_one_introduces_novel_topics(self):
        reqs = self.drift.requests_at_phase(300, phase=1.0)
        novel_share = np.mean([
            r.topic_id in self.drift.novel_topics for r in reqs
        ])
        assert 0.15 <= novel_share <= 0.45  # ~novel_topic_fraction

    def test_novel_share_monotone_in_phase(self):
        shares = []
        for phase in (0.0, 0.5, 1.0):
            reqs = self.drift.requests_at_phase(300, phase=phase)
            shares.append(np.mean([
                r.topic_id in self.drift.novel_topics for r in reqs
            ]))
        assert shares[0] <= shares[1] <= shares[2]

    def test_requests_remain_valid(self):
        for request in self.drift.requests_at_phase(50, phase=0.7):
            assert 0.0 <= request.difficulty <= 1.0
            assert request.prompt_tokens > 0
            assert np.linalg.norm(request.latent) == pytest.approx(1.0)

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            self.drift.requests_at_phase(10, phase=1.5)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            DriftingWorkload(self.dataset, novel_topic_fraction=1.5)


class TestBiasAutoscaler:
    def test_sustained_bias_scales_up(self):
        scaler = BiasAutoscaler(cooldown_steps=0)
        decisions = [scaler.observe(bias=1.5, utilization=0.9)
                     for _ in range(10)]
        assert any(d.action == "scale_up" for d in decisions)
        assert net_replicas_delta(scaler) > 0

    def test_idle_cluster_scales_down(self):
        scaler = BiasAutoscaler(cooldown_steps=0)
        decisions = [scaler.observe(bias=0.0, utilization=0.1)
                     for _ in range(10)]
        assert any(d.action == "scale_down" for d in decisions)
        assert net_replicas_delta(scaler) < 0

    def test_hysteresis_band_holds(self):
        # Bias between the two thresholds with busy cluster: do nothing.
        scaler = BiasAutoscaler()
        decisions = [scaler.observe(bias=0.2, utilization=0.8)
                     for _ in range(10)]
        assert all(d.action == "hold" for d in decisions)

    def test_cooldown_spaces_actions(self):
        scaler = BiasAutoscaler(cooldown_steps=5)
        actions = [scaler.observe(bias=2.0, utilization=1.0).action
                   for _ in range(12)]
        scale_ups = [i for i, a in enumerate(actions) if a == "scale_up"]
        assert len(scale_ups) >= 2
        assert scale_ups[1] - scale_ups[0] >= 5

    def test_transient_spike_is_smoothed(self):
        # One spike inside a calm stream must not trigger scaling, thanks to
        # the EMA (that is the point of "persistent magnitude").
        scaler = BiasAutoscaler(cooldown_steps=0, ema_alpha=0.1)
        for _ in range(5):
            scaler.observe(bias=0.1, utilization=0.6)
        decision = scaler.observe(bias=3.0, utilization=0.6)
        assert decision.action == "hold"

    def test_validation(self):
        with pytest.raises(ValueError, match="cooldown_steps"):
            BiasAutoscaler(cooldown_steps=-1)
        scaler = BiasAutoscaler()
        with pytest.raises(ValueError):
            scaler.observe(bias=-1.0, utilization=0.5)

    @pytest.mark.parametrize("bias, utilization", [
        (float("nan"), 0.5), (float("inf"), 0.5),
        (2.0, float("nan")), (2.0, float("inf")),
    ])
    def test_non_finite_observation_is_refused_before_the_emas_move(
            self, bias, utilization):
        # A NaN passes a bare ``< 0`` test and pins its EMA: the scaler
        # would then hold on every tick of a saturated cluster.
        scaler = BiasAutoscaler()
        with pytest.raises(ValueError, match="finite"):
            scaler.observe(bias=bias, utilization=utilization)
        assert scaler.bias_ema.count == scaler.utilization_ema.count == 0
        assert scaler.observe(bias=2.0, utilization=1.5).action == "scale_up"


class TestScalingApplication:
    """Applying ScalingDecisions live, clamped to the GPU budget."""

    @staticmethod
    def _cluster(small_replicas=2, budget=16):
        # gemma-2-2b: 1 GPU/replica; gemma-2-27b: 8 GPUs/replica.  With one
        # large replica and a 16-GPU budget the small tier caps at 8.
        return ClusterSimulator(ClusterConfig(
            deployments=[
                ModelDeployment(get_model("gemma-2-2b"),
                                replicas=small_replicas),
                ModelDeployment(get_model("gemma-2-27b"), replicas=1),
            ],
            gpu_budget=budget,
        ))

    def test_scale_up_applies_within_budget(self):
        sim = self._cluster(small_replicas=2)
        assert sim.apply_scaling("gemma-2-2b", +2) == 2
        assert sim.deployment("gemma-2-2b").replicas == 4
        assert sim.total_gpus() == 12
        event = sim.report.scaling[-1]
        assert (event.requested_delta, event.applied_delta) == (2, 2)

    def test_scale_up_clamped_at_budget_not_overprovisioned(self):
        sim = self._cluster(small_replicas=7)
        # Requesting +2 with 1 GPU of headroom applies only +1 ...
        assert sim.apply_scaling("gemma-2-2b", +2) == 1
        assert sim.deployment("gemma-2-2b").replicas == 8
        assert sim.total_gpus() == 16
        # ... and at the ceiling further scale-ups are no-ops (no event).
        n_events = len(sim.report.scaling)
        assert sim.apply_scaling("gemma-2-2b", +2) == 0
        assert sim.total_gpus() == 16
        assert len(sim.report.scaling) == n_events

    def test_scale_down_floors_at_one_replica(self):
        sim = self._cluster(small_replicas=2)
        assert sim.apply_scaling("gemma-2-2b", -5) == -1
        assert sim.deployment("gemma-2-2b").replicas == 1
        assert sim.apply_scaling("gemma-2-2b", -1) == 0

    def test_unbudgeted_cluster_scales_freely(self):
        sim = self._cluster(small_replicas=2, budget=None)
        assert sim.apply_scaling("gemma-2-2b", +20) == 20
        assert sim.deployment("gemma-2-2b").replicas == 22

    def test_unknown_model_raises(self):
        sim = self._cluster()
        with pytest.raises(KeyError):
            sim.apply_scaling("nonexistent-model", +1)

    def test_autoscaler_decisions_drive_cluster_within_budget(self):
        # The full control loop, no traffic: sustained saturating bias must
        # walk the small tier up to the budget ceiling and stop there.
        sim = self._cluster(small_replicas=2)
        scaler = BiasAutoscaler(cooldown_steps=0, ema_alpha=1.0)
        for _ in range(20):
            decision = scaler.observe(bias=3.0, utilization=0.95)
            if decision.replicas_delta:
                sim.apply_scaling("gemma-2-2b", decision.replicas_delta)
            assert sim.total_gpus() <= 16
        assert sim.deployment("gemma-2-2b").replicas == 8
        # The recommendation overshoots the budget; the application clamps.
        assert net_replicas_delta(scaler) > 6
        applied = sum(e.applied_delta for e in sim.report.scaling)
        assert applied == 6


class TestRouterBiasSignal:
    def test_current_bias_tracks_overload(self):
        from repro.core.router import BanditRouter, RouterArm

        router = BanditRouter(arms=[RouterArm("s", 0.1), RouterArm("l", 1.0)])
        for _ in range(20):
            router.observe_load(0.2)
        assert router.current_bias() == 0.0
        for _ in range(50):
            router.observe_load(2.0)
        assert router.current_bias() > 1.0
