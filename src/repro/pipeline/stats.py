"""Serving statistics shared by every pipeline-driven policy.

``ServiceStats`` predates the pipeline (it was defined next to
``ICCacheService``).  It lives here, and only here, so the pipeline — which
updates it — has no import-time dependency on the service layer.

This module must stay import-light (stdlib only): it is the one pipeline
module :mod:`repro.core.service` imports at module level, and anything
heavier would recreate the core <-> pipeline import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ServiceStats:
    """Running counters the benchmarks read.

    ``offload_ratio`` is the headline quantity of the paper's end-to-end
    evaluation (section 7.1, Fig. 12): the fraction of traffic IC-Cache
    diverts from the large reference model to the cheap model.

    Quality is tracked as a running mean (``mean_quality``) rather than a
    per-request list, so a long-lived service holds O(1) stats state no
    matter how many requests it serves.
    """

    served: int = 0
    offloaded: int = 0
    bypasses: int = 0
    router_updates: int = 0
    proxy_updates: int = 0
    quality_sum: float = 0.0
    quality_count: int = 0

    @property
    def offload_ratio(self) -> float:
        return self.offloaded / self.served if self.served else 0.0

    @property
    def mean_quality(self) -> float:
        """Mean response quality over every recorded request (0.0 if none)."""
        return self.quality_sum / self.quality_count if self.quality_count else 0.0

    def record_quality(self, quality: float) -> None:
        self.quality_sum += quality
        self.quality_count += 1
