"""Unit tests for the bandit Request Router, including convergence and the
tanh load bias (appendix A.2 theorems, empirically)."""

import numpy as np
import pytest

from repro.core import router as router_module
from repro.core.config import RouterConfig
from repro.core.router import (
    BanditRouter,
    N_ROUTER_FEATURES,
    RouterArm,
    routing_features,
)
from repro.core.selector import ScoredExample

from tests.conftest import make_request
from tests.test_core_cache import make_example


def scored(utility=0.3, relevance=0.9):
    return ScoredExample(example=make_example(), relevance=relevance,
                         utility=utility)


def two_arm_router(config=None, seed=0):
    return BanditRouter(
        arms=[RouterArm("small", cost=0.1), RouterArm("large", cost=1.0)],
        config=config or RouterConfig(),
        seed=seed,
    )


class TestRoutingFeatures:
    def test_shape_and_bias_term(self):
        x = routing_features(make_request(), [scored(), scored(utility=0.5)])
        assert x.shape == (N_ROUTER_FEATURES,)
        assert x[0] == 1.0

    def test_no_examples(self):
        x = routing_features(make_request(), [])
        assert x[2] == 0.0 and x[3] == 0.0


class TestRouterConstruction:
    def test_needs_two_arms(self):
        with pytest.raises(ValueError):
            BanditRouter(arms=[RouterArm("only", cost=0.5)])

    def test_duplicate_arms_rejected(self):
        with pytest.raises(ValueError):
            BanditRouter(arms=[RouterArm("m", 0.1), RouterArm("m", 0.2)])

    def test_cost_normalized(self):
        with pytest.raises(ValueError):
            RouterArm("m", cost=2.0)

    def test_unknown_arm_update(self):
        router = two_arm_router()
        with pytest.raises(KeyError):
            router.update("mystery", np.zeros(N_ROUTER_FEATURES), 0.5)

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_reward_is_refused_before_anything_moves(
            self, reward):
        """One NaN reward used to make the arm's moment NaN for good, and
        the router kept routing on it with no error."""
        router = two_arm_router()
        x = routing_features(make_request(), [scored()])
        router.update("small", x, 0.6)
        arm = router._posteriors["small"]
        before = (arm.pulls, arm._precision.copy(), arm._moment.copy())
        with pytest.raises(ValueError, match="finite"):
            router.update("small", x, reward)
        assert arm.pulls == before[0]
        np.testing.assert_array_equal(arm._precision, before[1])
        np.testing.assert_array_equal(arm._moment, before[2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["cost_penalty", "bias_lambda"])
    def test_a_non_finite_setting_is_refused_when_set(self, name, value):
        """A NaN ``cost_penalty`` made the shaped reward, hence the arm's
        moment, NaN past ``update``'s reward guard; a NaN ``bias_lambda``
        made every biased score NaN, so routing took the first arm."""
        with pytest.raises(ValueError, match=name):
            RouterConfig(**{name: value})
        router = two_arm_router()
        with pytest.raises(ValueError, match=name):
            setattr(router.config, name, value)
        assert getattr(router.config, name) == getattr(RouterConfig(), name)
        router.update("small", routing_features(make_request(), []), 0.6)
        assert np.isfinite(router._posteriors["small"]._moment).all()


class TestConvergence:
    def test_learns_better_arm(self):
        # Thm. 1/2 empirically: with a stationary reward gap, the router
        # concentrates pulls on the better arm.
        router = two_arm_router(seed=1)
        rng = np.random.default_rng(0)
        rewards = {"small": 0.75, "large": 0.55}
        choices = []
        for i in range(400):
            req = make_request(request_id=f"r{i}", difficulty=0.5)
            choice = router.route(req, [scored()], load=0.1)
            reward = rewards[choice.model_name] + rng.normal(0, 0.05)
            router.update(choice.model_name, choice.features, reward)
            choices.append(choice.model_name)
        late = choices[-100:]
        assert late.count("small") > 80

    def test_context_dependent_policy(self):
        # The router must learn *contextual* structure: small wins on easy
        # requests, large on hard ones.
        router = two_arm_router(seed=2)
        rng = np.random.default_rng(1)
        for i in range(600):
            difficulty = float(rng.uniform(0, 1))
            req = make_request(request_id=f"r{i}", difficulty=difficulty)
            choice = router.route(req, [], load=0.0)
            if choice.model_name == "small":
                reward = 0.8 - 0.5 * difficulty
            else:
                reward = 0.6
            router.update(choice.model_name, choice.features,
                          reward + rng.normal(0, 0.03))
        easy_choices = [
            router.route(make_request(request_id=f"e{i}", difficulty=0.05),
                         [], load=0.0).model_name
            for i in range(50)
        ]
        hard_choices = [
            router.route(make_request(request_id=f"h{i}", difficulty=0.95),
                         [], load=0.0).model_name
            for i in range(50)
        ]
        assert easy_choices.count("small") > 35
        assert hard_choices.count("large") > 35


class TestLoadBias:
    def test_no_bias_below_threshold(self):
        router = two_arm_router()
        assert router._load_bias(0.5) == 0.0

    def test_bias_grows_then_saturates(self):
        router = two_arm_router()
        b1 = router._load_bias(0.8)
        b2 = router._load_bias(1.2)
        b3 = router._load_bias(50.0)
        assert 0 < b1 < b2 <= b3
        assert b3 <= router.config.bias_lambda  # tanh saturation

    def test_overload_forces_cheap_arm(self):
        # Thm. 4 empirically: under extreme load the cheap arm dominates
        # even when the expensive arm has learned higher reward.
        router = two_arm_router(seed=3)
        rng = np.random.default_rng(2)
        for i in range(300):
            req = make_request(request_id=f"r{i}")
            choice = router.route(req, [], load=0.1)
            reward = 0.9 if choice.model_name == "large" else 0.5
            router.update(choice.model_name, choice.features,
                          reward + rng.normal(0, 0.03))
        # Saturate the load EMA well above threshold.
        for _ in range(50):
            router.observe_load(5.0)
        overloaded = [
            router.route(make_request(request_id=f"o{i}"), []).model_name
            for i in range(60)
        ]
        assert overloaded.count("small") > 50

    def test_load_ema_smoothing(self, monkeypatch):
        monkeypatch.setattr(router_module, "LOAD_EMA_ALPHA", 0.5)
        router = two_arm_router()
        router.observe_load(1.0)
        router.observe_load(0.0)
        assert router.load_ema.value == pytest.approx(0.5)


class TestFeedbackSolicitation:
    def test_cold_start_is_uncertain(self):
        router = two_arm_router(seed=4)
        choice = router.route(make_request(), [scored()], load=0.0)
        assert choice.solicit_feedback
        assert choice.challenger is not None
        assert choice.challenger != choice.model_name

    def test_confident_router_stops_soliciting(self):
        router = two_arm_router(seed=5)
        rng = np.random.default_rng(3)
        for i in range(300):
            req = make_request(request_id=f"r{i}")
            choice = router.route(req, [], load=0.0)
            reward = 0.9 if choice.model_name == "small" else 0.2
            router.update(choice.model_name, choice.features,
                          reward + rng.normal(0, 0.02))
        before = router.feedback_solicitations
        for i in range(50):
            router.route(make_request(request_id=f"c{i}"), [], load=0.0)
        solicited = router.feedback_solicitations - before
        assert solicited < 10

    def test_solicitation_counter(self):
        router = two_arm_router(seed=6)
        router.route(make_request(), [], load=0.0)
        assert router.feedback_solicitations >= 0
        assert router.decisions == 1
