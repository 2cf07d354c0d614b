"""Configuration for every IC-Cache component.

All tunables live here so experiments can sweep them; defaults reproduce the
paper's settings where the paper states them (e.g. five examples, 0.9 hourly
decay, <=5 replay iterations) and sensible values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SelectorConfig:
    """Example Selector (section 4.1)."""

    pre_k: int = 20                   # stage-1 relevance candidates
    max_examples: int = 5             # Fig. 4 uses five examples
    utility_threshold: float = 0.02   # initial dynamic threshold
    threshold_grid: tuple = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    adapt_every: int = 200            # requests between threshold adaptations
    diversity_weight: float = 0.3     # redundancy penalty in combination pick
    context_budget_tokens: int = 2048 # example budget within the prompt
    token_cost_weight: float = 5e-5   # utility-per-token cost in adaptation

    def __post_init__(self) -> None:
        if self.pre_k < 1 or self.max_examples < 0:
            raise ValueError("pre_k must be >= 1 and max_examples >= 0")
        if self.max_examples > self.pre_k:
            raise ValueError("max_examples cannot exceed pre_k")


@dataclass
class RouterConfig:
    """Request Router (section 4.2, appendix A.2)."""

    ridge: float = 1.0               # prior precision of each arm's posterior
    noise_var: float = 0.05          # assumed reward noise for Thompson draws
    cost_penalty: float = 0.05       # reward shaping: prefer cheap at parity
    load_threshold: float = 0.7      # EMA load above which the bias engages
    bias_lambda: float = 4.0         # lambda_0 in the tanh bias (thm. 4)
    bias_gamma: float = 3.0          # gamma: how fast the bias saturates
    load_ema_alpha: float = 0.1      # EMA smoothing of the observed load
    uncertainty_std_gate: float = 0.1  # solicit feedback below this std
    uncertainty_temp: float = 0.05   # softmax temperature for the gate
    exploration_floor: float = 0.02  # min probability of exploring an arm

    def __post_init__(self) -> None:
        if self.ridge <= 0 or self.noise_var <= 0:
            raise ValueError("ridge and noise_var must be positive")
        if not 0.0 < self.load_ema_alpha <= 1.0:
            raise ValueError("load_ema_alpha must be in (0, 1]")


@dataclass
class ManagerConfig:
    """Example Manager (section 4.3)."""

    capacity_bytes: int | None = None   # None = unbounded cache
    decay_factor: float = 0.9           # per-hour gain decay (section 4.3)
    decay_period_s: float = 3600.0
    admission_dedupe_sim: float = 0.99  # skip admission above this similarity
    replay_max_iterations: int = 5      # section 5: filter after 5 replays
    replay_samples: int = 3             # generations per replay pass
    replay_cost_per_example: float = 0.15  # normalized one-time replay cost
    sanitize: bool = True               # run the PII sanitizer on admission
    knapsack_exact_below: int = 64      # use exact DP for small caches

    def __post_init__(self) -> None:
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.replay_max_iterations < 0 or self.replay_samples < 1:
            raise ValueError("replay settings must be non-negative/positive")


@dataclass
class IndexConfig:
    """IVF index knobs.

    Incremental retrain only engages above pools far larger than the golden
    scenarios build (``incremental_min_n=10_000``) — below that, staleness
    triggers a global K-Means.
    """

    nprobe: int = 2                   # clusters probed per query
    incremental_min_n: int = 10_000   # split/merge retrain above this N

    def __post_init__(self) -> None:
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.incremental_min_n < 1:
            raise ValueError("incremental_min_n must be >= 1")


@dataclass
class ICCacheConfig:
    """Top-level configuration for :class:`repro.core.service.ICCacheService`."""

    small_model: str = "gemma-2-2b"
    large_model: str = "gemma-2-27b"
    embedding_dim: int = 64
    embedder_noise: float = 0.05
    feedback_sample_rate: float = 0.3   # fraction of responses with feedback
    feedback_noise: float = 0.1         # noise on sampled helpfulness labels
    cache_shards: int = 1               # >1 = ShardedExampleCache fan-out
    seed: int = 0
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    manager: ManagerConfig = field(default_factory=ManagerConfig)
    index: IndexConfig = field(default_factory=IndexConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.feedback_sample_rate <= 1.0:
            raise ValueError("feedback_sample_rate must be in [0, 1]")
        if self.embedding_dim < 8:
            raise ValueError("embedding_dim must be >= 8")
        if self.cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
