"""The bandit-based Request Router (section 4.2, appendix A.2).

Routing is a contextual multi-armed bandit: the context is the request plus
its selected examples, each arm is a candidate model.  Arms keep a Bayesian
linear-regression posterior over reward; decisions draw one weight sample per
arm (linear Thompson sampling) and pick the highest sampled score *after*
subtracting a load-dependent cost bias:

    score_i(L) = mu_i - lambda_0 * tanh(gamma * max(0, L - threshold)) * cost_i

(theorem 4 of the appendix: as load grows, the softmax over these scores
collapses onto the cheapest viable arm).  Feedback is solicited only when the
router is uncertain — when the softmax over arm means is near-uniform (std
below a gate) — and then the top arm is always kept while the challenger is
Thompson-sampled, mirroring appendix A.2's hybrid scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.stats import EMA, small_sum
from repro.core.config import RouterConfig
from repro.core.selector import ScoredExample
from repro.utils.rng import make_rng, stable_hash
from repro.workload.request import Request

N_ROUTER_FEATURES = 7


def routing_features(request: Request,
                     examples: list[ScoredExample]) -> np.ndarray:
    """The bandit context for one routing decision.

    Everything here is observable at serving time: the request's estimated
    complexity and length, and the selected examples' count/utility profile.
    """
    utilities = [s.utility for s in examples]
    n = len(utilities)
    return np.array([
        1.0,
        request.observable_difficulty(),
        n / 5.0,
        max(utilities, default=0.0),
        small_sum(utilities) / n if n else 0.0,     # np.mean(utilities)
        max([s.relevance for s in examples], default=0.0),
        min(1.0, request.prompt_tokens / 1024.0),
    ])


class _LinearTSArm:
    """Bayesian linear regression posterior for one arm (one model)."""

    def __init__(self, dim: int, ridge: float, noise_var: float) -> None:
        self._precision = ridge * np.eye(dim)
        self._moment = np.zeros(dim)
        self._noise_var = noise_var
        self.pulls = 0
        # Posterior mean/covariance only change on ``update``, yet every
        # routing decision needs both (mean score + Thompson sample).  Cache
        # the solve/inv/cholesky between updates; the cached arrays are the
        # exact values the uncached code computed, so sampling streams are
        # unchanged bit for bit.
        self._posterior_memo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _posterior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._posterior_memo is None:
            mean = np.linalg.solve(self._precision, self._moment)
            cov = self._noise_var * np.linalg.inv(self._precision)
            self._posterior_memo = (mean, cov, np.linalg.cholesky(cov))
        return self._posterior_memo

    def mean_score(self, x: np.ndarray) -> float:
        return float(x @ self._posterior()[0])

    def scores(self, x: np.ndarray,
               rng: np.random.Generator) -> tuple[float, float]:
        """(posterior-mean score, one Thompson-sampled score) for ``x``."""
        # Identical draw to ``rng.multivariate_normal(mean, cov,
        # method="cholesky")``: that path factorizes cov afresh per call and
        # computes mean + standard_normal(dim) @ L.T — here L is cached with
        # the posterior, and the standard-normal consumption (hence the
        # stream) and the float results are bit-equal.
        mean, _, chol = self._posterior()
        weights = mean + rng.standard_normal(mean.shape[0]) @ chol.T
        return float(x @ mean), float(x @ weights)

    def update(self, x: np.ndarray, reward: float) -> None:
        self._precision += x[:, None] * x     # np.outer(x, x)
        self._moment += reward * x
        self.pulls += 1
        self._posterior_memo = None


@dataclass(frozen=True)
class RouterArm:
    """One routable model: its name and normalized serving cost in [0, 1]."""

    model_name: str
    cost: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.cost <= 1.0:
            raise ValueError(
                f"arm {self.model_name}: cost must be normalized to [0, 1], "
                f"got {self.cost}"
            )


@dataclass
class RoutingChoice:
    """Outcome of one routing decision (section 4.2).

    Carries the arm scores before and after the theorem-4 load bias so
    benchmarks can decompose *why* a request was (not) offloaded, plus the
    feedback-solicitation flag of appendix A.2's hybrid scheme.
    """

    model_name: str
    features: np.ndarray
    mean_scores: dict[str, float]
    biased_scores: dict[str, float]
    solicit_feedback: bool
    challenger: str | None = None   # second model when soliciting feedback
    load: float = 0.0
    metadata: dict = field(default_factory=dict)


class BanditRouter:
    """Contextual Thompson-sampling router with tanh load biasing.

    The Request Router of section 4.2: each arm keeps a Bayesian linear
    posterior over reward, decisions subtract the load-dependent cost bias
    of theorem 4 (appendix A.2), and feedback is solicited only on
    uncertain decisions.
    """

    def __init__(self, arms: list[RouterArm],
                 config: RouterConfig | None = None, seed: int = 0) -> None:
        if len(arms) < 2:
            raise ValueError("the router needs at least two arms")
        names = [arm.model_name for arm in arms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arm names: {names}")
        self.arms = list(arms)
        self.config = config or RouterConfig()
        self._posteriors = {
            arm.model_name: _LinearTSArm(
                N_ROUTER_FEATURES, self.config.ridge, self.config.noise_var
            )
            for arm in arms
        }
        self._rng = make_rng(stable_hash("router", seed))
        self.load_ema = EMA(alpha=self.config.load_ema_alpha)
        self.decisions = 0
        self.feedback_solicitations = 0

    # -- load tracking ----------------------------------------------------

    def observe_load(self, load: float) -> float:
        """Feed the current system load into the EMA; returns the average."""
        return self.load_ema.update(load)

    def _load_bias(self, load: float) -> float:
        """The tanh feedback-controller bias, active only above threshold."""
        overload = max(0.0, load - self.config.load_threshold)
        scaled = self.config.bias_gamma * overload
        # tanh(+-0.0) is +-0.0 in every libm; only a loaded system pays the
        # numpy call (numpy's tanh, not math's: they may differ by an ulp).
        return self.config.bias_lambda * (
            float(np.tanh(scaled)) if scaled else scaled)

    def current_bias(self) -> float:
        """The bias at the current load EMA — the autoscaling signal the
        paper points at ("the persistent magnitude of this applied bias can
        be used ... for infrastructure auto-scaling", section 4.2)."""
        return self._load_bias(self.load_ema.value)

    # -- decisions ---------------------------------------------------------

    def route(self, request: Request, examples: list[ScoredExample],
              load: float | None = None) -> RoutingChoice:
        """Pick the model for this request given selected examples and load."""
        self.decisions += 1
        if load is not None:
            self.observe_load(load)
        effective_load = self.load_ema.value

        x = routing_features(request, examples)
        bias = self._load_bias(effective_load)
        rng = self._rng

        mean_scores = {}
        biased_scores = {}
        sampled_scores = []     # in arm order, like the two dicts
        for arm in self.arms:
            name = arm.model_name
            mean_scores[name], sampled = self._posteriors[name].scores(x, rng)
            sampled_scores.append(sampled)
            biased_scores[name] = sampled - bias * arm.cost

        # Occasional forced exploration keeps every arm identifiable even
        # after the posterior becomes confident (model upgrades, section 8).
        if rng.random() < self.config.exploration_floor:
            chosen = self.arms[int(rng.integers(0, len(self.arms)))].model_name
        else:
            chosen = max(biased_scores, key=biased_scores.get)

        solicit, challenger = self._feedback_decision(
            chosen, mean_scores, sampled_scores
        )
        if solicit:
            self.feedback_solicitations += 1
        return RoutingChoice(
            model_name=chosen,
            features=x,
            mean_scores=mean_scores,
            biased_scores=biased_scores,
            solicit_feedback=solicit,
            challenger=challenger,
            load=effective_load,
        )

    def _feedback_decision(self, chosen: str, mean_scores: dict[str, float],
                           sampled_scores: list[float]
                           ) -> tuple[bool, str | None]:
        """Solicit preference feedback only on uncertain decisions.

        Uncertainty gate: the softmax over arm mean scores is near-uniform
        (std below the configured gate).  The top-ranked arm is always
        included; the challenger is the Thompson-sampled best of the rest
        (``sampled_scores`` is in arm order).
        """
        # The softmax and its std, as the scalar operations numpy's array
        # forms perform (``exp`` stays numpy's: libm's may differ by an ulp).
        temp = self.config.uncertainty_temp
        scores = [score / temp for score in mean_scores.values()]
        top = max(scores)
        exps = np.exp(np.array([score - top for score in scores])).tolist()
        total = small_sum(exps)
        probs = [e / total for e in exps]
        mean = small_sum(probs) / len(probs)
        squares = [(p - mean) * (p - mean) for p in probs]
        if math.sqrt(small_sum(squares) / len(probs)) \
                >= self.config.uncertainty_std_gate:
            return False, None
        challenger = best = None
        for arm, sampled in zip(self.arms, sampled_scores):
            if arm.model_name != chosen and (best is None or sampled > best):
                challenger, best = arm.model_name, sampled
        return challenger is not None, challenger

    # -- learning -----------------------------------------------------------

    def update(self, model_name: str, features: np.ndarray, reward: float) -> None:
        """Ingest one reward observation for the pulled arm.

        Reward = observed response quality minus a small cost-shaping term
        (``cost_penalty``) so that at quality parity the router prefers the
        cheaper model.
        """
        arm = self._arm(model_name)
        shaped = reward - self.config.cost_penalty * arm.cost
        self._posteriors[model_name].update(np.asarray(features, dtype=float), shaped)

    def pulls(self, model_name: str) -> int:
        return self._posteriors[model_name].pulls

    def _arm(self, model_name: str) -> RouterArm:
        for arm in self.arms:
            if arm.model_name == model_name:
                return arm
        known = ", ".join(a.model_name for a in self.arms)
        raise KeyError(f"unknown arm {model_name!r}; have: {known}")
