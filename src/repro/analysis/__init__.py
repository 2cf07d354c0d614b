"""Statistics and optimization helpers shared across the system.

``stats`` provides the streaming aggregates the paper reports (percentiles,
CDFs, Pearson correlation, exponential moving averages); ``knapsack`` solves
the cache-eviction problem of section 4.3 (``knapsack.knapsack_keep_mask``).
"""

from repro.analysis.stats import (
    EMA,
    cdf_points,
    pearson_correlation,
    percentile,
    summarize_latencies,
)

__all__ = [
    "EMA",
    "cdf_points",
    "pearson_correlation",
    "percentile",
    "summarize_latencies",
]
