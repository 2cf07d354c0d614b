"""Shared Hypothesis strategy library (and tiered settings profiles).

Importing this package loads the settings profile selected by the
``HYPOTHESIS_PROFILE`` environment variable (``dev``/``ci``/``nightly``,
default ``dev``) and exposes the scenario strategies, so a property test
needs exactly::

    from tests.strategies import STANDARD, flash_crowd_traces

    @settings(**STANDARD)
    @given(trace=flash_crowd_traces())
    def test_property(trace): ...

See ``docs/TESTING.md`` for the tier/profile matrix.
"""

from tests.strategies.settings import (
    DETERMINISM,
    PROFILE,
    QUICK,
    SCENARIO,
    STANDARD,
)
from tests.strategies.vectors import (
    KMeansCase,
    VectorPool,
    kmeans_cases,
    vector_pools,
)
from tests.strategies.workload import (
    adversarial_traces,
    chaos_windows,
    composite_traces,
    flash_crowd_traces,
    flash_crowds,
    seeds,
    tenant_skew_traces,
    topic_burst_traces,
)

__all__ = [
    "PROFILE",
    "QUICK",
    "STANDARD",
    "DETERMINISM",
    "SCENARIO",
    "seeds",
    "flash_crowds",
    "flash_crowd_traces",
    "tenant_skew_traces",
    "topic_burst_traces",
    "composite_traces",
    "adversarial_traces",
    "chaos_windows",
    "VectorPool",
    "vector_pools",
    "KMeansCase",
    "kmeans_cases",
]
