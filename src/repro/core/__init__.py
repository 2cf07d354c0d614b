"""IC-Cache core: the paper's contribution.

The three components of Fig. 5 — Example Selector (section 4.1), Request
Router (section 4.2), Example Manager (section 4.3) — plus the end-to-end
service (Algorithm 1) and the few-lines-of-code client API (Fig. 6).
"""

from repro.core.config import (
    ICCacheConfig,
    ManagerConfig,
    RouterConfig,
    SelectorConfig,
)
from repro.core.example import Example
from repro.core.table import ExampleTable
from repro.core.cache import ExampleCache
from repro.core.proxy import HelpfulnessProxy
from repro.core.selector import ExampleSelector, ScoredExample
from repro.core.router import BanditRouter, RouterArm, RoutingChoice
from repro.core.replay import ReplayEngine, replay_gain
from repro.core.manager import ExampleManager
from repro.core.service import ICCacheService
from repro.core.client import ICCacheClient

__all__ = [
    "ICCacheConfig",
    "ManagerConfig",
    "RouterConfig",
    "SelectorConfig",
    "Example",
    "ExampleTable",
    "ExampleCache",
    "HelpfulnessProxy",
    "ExampleSelector",
    "ScoredExample",
    "BanditRouter",
    "RouterArm",
    "RoutingChoice",
    "ReplayEngine",
    "replay_gain",
    "ExampleManager",
    "ICCacheService",
    "ICCacheClient",
]
