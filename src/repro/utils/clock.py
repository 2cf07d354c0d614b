"""Simulation clock.

The serving simulator and the example manager both need a notion of "now"
that is decoupled from wall time (experiments replay multi-hour traces in
seconds).  ``SimClock`` is a tiny monotonic clock that components share.
"""

from __future__ import annotations

import math


class SimClock:
    """A monotonic simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < math.inf:      # NaN fails too
            raise ValueError(f"clock start must be finite and >= 0: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if not 0 <= delta < math.inf:
            raise ValueError(f"clock step must be finite and >= 0: {delta}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (no-op if already past it)."""
        if not math.isfinite(timestamp):
            raise ValueError(f"clock time must be finite: {timestamp}")
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock, e.g. between benchmark repetitions."""
        if not 0 <= start < math.inf:
            raise ValueError(f"clock reset must be finite and >= 0: {start}")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.3f})"
