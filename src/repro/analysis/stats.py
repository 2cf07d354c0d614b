"""Statistical primitives used throughout the reproduction.

These mirror the quantities the paper reports: latency percentiles (Fig. 18,
Fig. 20), similarity CDFs (Fig. 3a, Fig. 10), the Pearson correlation between
relevance and helpfulness (Fig. 7), and the exponential moving average the
request router tracks load with (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EMA:
    """Exponential moving average.

    The router tracks serving load as ``ema = alpha * x + (1 - alpha) * ema``.
    """

    def __init__(self, alpha: float, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = initial
        self.count = 0

    @property
    def value(self) -> float:
        """Current average (0.0 until the first update)."""
        return 0.0 if self._value is None else self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def update(self, x: float) -> float:
        if self._value is None:
            self._value = float(x)
        else:
            self._value = self.alpha * float(x) + (1.0 - self.alpha) * self._value
        self.count += 1
        return self._value


def small_sum(values: list[float]) -> float:
    """``float(np.add.reduce(np.array(values)))`` for a short list, bit for
    bit, without the array: below 8 items numpy's reduce is the plain
    left-to-right loop written here (from 0.0, so a lone ``-0.0`` sums to
    ``0.0`` as it does there); from 8 up its pairwise blocks take over.
    Never builtin ``sum``: it is compensated from Python 3.12 on.
    """
    if len(values) >= 8:
        return float(np.add.reduce(np.asarray(values, dtype=float)))
    total = 0.0
    for x in values:
        total += x
    return total


def percentile(values, q: float) -> float:
    """The q-th percentile (q in [0, 100]) of a sequence; NaN when empty."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def pearson_correlation(x, y) -> float:
    """Pearson's r between two equal-length sequences; 0.0 when degenerate."""
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        return 0.0
    xs = xa.std()
    ys = ya.std()
    if xs == 0.0 or ys == 0.0:
        return 0.0
    return float(np.corrcoef(xa, ya)[0, 1])


@dataclass
class LatencySummary:
    """The latency aggregate the serving benchmarks print."""

    count: int = 0
    mean: float = float("nan")
    p50: float = float("nan")
    p90: float = float("nan")
    p99: float = float("nan")
    maximum: float = float("nan")
    samples: list[float] = field(default_factory=list, repr=False)


def summarize_latencies(values) -> LatencySummary:
    """Aggregate a sequence of latencies into the reported percentiles."""
    samples = [float(v) for v in values]
    if not samples:
        return LatencySummary()
    arr = np.asarray(samples)
    return LatencySummary(
        count=arr.size,
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
        samples=samples,
    )
