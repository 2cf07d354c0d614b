"""Configuration for every IC-Cache component.

Only values a caller sets to something other than the default are fields
here: a figure sweep, an ablation, a deployment budget, the model pair, the
seed.  Every other value is a module constant beside the one module that
reads it (``docs/ARCHITECTURE.md`` lists both, with their sources).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field


@dataclass
class SelectorConfig:
    """Example Selector (section 4.1): the deployed model's context window."""

    pre_k: int = 20                   # stage-1 relevance candidates
    max_examples: int = 5             # Fig. 4 uses five examples
    context_budget_tokens: int = 2048 # example budget within the prompt

    def __post_init__(self) -> None:
        if self.pre_k < 1 or self.max_examples < 0:
            raise ValueError("pre_k must be >= 1 and max_examples >= 0")
        if self.max_examples > self.pre_k:
            raise ValueError("max_examples cannot exceed pre_k")


@dataclass
class RouterConfig:
    """Request Router (section 4.2, appendix A.2)."""

    cost_penalty: float = 0.05       # reward shaping: prefer cheap at parity
    bias_lambda: float = 4.0         # lambda_0 in the tanh bias (thm. 4)

    def __setattr__(self, name: str, value: float) -> None:
        # Checked on assignment too: sweeps set these on a live service.
        # NaN would reach every arm's moments or every biased score.
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")
        super().__setattr__(name, value)


@dataclass
class ManagerConfig:
    """Example Manager (section 4.3)."""

    capacity_bytes: int | None = None   # None = unbounded cache
    sanitize: bool = True               # run the PII sanitizer on admission

    def __setattr__(self, name: str, value) -> None:
        # Checked on assignment too: callers fill a cache, then set the
        # budget to its size.  NaN would fail ``total <= capacity`` and
        # evict everything; a float has no byte count.
        if name == "capacity_bytes" and value is not None:
            if not hasattr(value, "__index__") or operator.index(value) < 0:
                raise ValueError(
                    "capacity_bytes must be None or a non-negative integer")
            value = operator.index(value)
        super().__setattr__(name, value)


@dataclass
class ICCacheConfig:
    """Top-level configuration for :class:`repro.core.service.ICCacheService`."""

    small_model: str = "gemma-2-2b"
    large_model: str = "gemma-2-27b"
    seed: int = 0
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    manager: ManagerConfig = field(default_factory=ManagerConfig)

    def __post_init__(self) -> None:
        if not self.seed >= 0:      # make_rng's contract (repro.utils.rng)
            raise ValueError(f"seed must be >= 0, got {self.seed}")
