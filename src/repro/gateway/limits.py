"""Per-tenant admission limits for the serving gateway.

Token buckets over *logical* time: every refill is computed from the
request's arrival timestamp on the gateway's virtual clock, never from the
wall clock (the repo-wide DET002 discipline), so a replayed trace makes
identical 429 decisions run after run — rate limiting is part of the
deterministic serving surface, not a wall-clock side channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _check_rates(capacity: float, refill_per_s: float) -> None:
    """Refuse a bucket shape no admission could honour: ``0 < capacity <
    inf`` and ``0 <= refill_per_s < inf``, which NaN fails both of."""
    if not 0 < capacity < math.inf:
        raise ValueError(f"capacity must be finite and > 0, got {capacity}")
    if not 0 <= refill_per_s < math.inf:
        raise ValueError(
            f"refill_per_s must be finite and >= 0, got {refill_per_s}")


@dataclass
class TokenBucket:
    """The classic token bucket, refilled lazily at acquire time.

    Starts full.  ``try_acquire(now_s)`` refills ``refill_per_s *
    elapsed`` (clamped to ``capacity``), then takes one token if one is
    available.  ``now_s`` may repeat (same-instant arrivals) but must not
    go backwards — the gateway's single writer feeds arrivals in
    watermark order, so a negative elapsed means a caller bug and the
    refill is simply zero.
    """

    capacity: float
    refill_per_s: float
    tokens: float = field(default=-1.0)
    updated_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rates(self.capacity, self.refill_per_s)
        if self.tokens < 0:
            self.tokens = float(self.capacity)

    def try_acquire(self, now_s: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens at logical time ``now_s`` if available."""
        elapsed = max(0.0, now_s - self.updated_s)
        self.tokens = min(float(self.capacity),
                          self.tokens + elapsed * self.refill_per_s)
        self.updated_s = max(self.updated_s, float(now_s))
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class TenantRateLimiter:
    """One :class:`TokenBucket` per tenant, minted on first sight.

    ``capacity``/``refill_per_s`` are the defaults for every tenant;
    ``overrides`` maps tenant name to a ``(capacity, refill_per_s)`` pair
    for tiered plans; the defaults and every override are checked here, as
    :class:`TokenBucket` checks them, not on a request's path.  Buckets are
    gateway-process state, deliberately *not* snapshotted: a restarted
    gateway grants every tenant a full bucket, which errs toward admitting
    (``docs/GATEWAY.md``).
    """

    def __init__(self, capacity: float, refill_per_s: float,
                 overrides: dict[str, tuple[float, float]] | None = None,
                 ) -> None:
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.overrides = dict(overrides or {})
        _check_rates(self.capacity, self.refill_per_s)
        for tenant, (cap, refill) in self.overrides.items():
            try:
                _check_rates(cap, refill)
            except ValueError as exc:
                raise ValueError(f"override for {tenant!r}: {exc}") from None
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        got = self._buckets.get(tenant)
        if got is None:
            capacity, refill = self.overrides.get(
                tenant, (self.capacity, self.refill_per_s)
            )
            got = self._buckets[tenant] = TokenBucket(capacity, refill)
        return got

    def admit(self, tenant: str, now_s: float) -> bool:
        """One admission decision at logical time ``now_s``."""
        return self.bucket(tenant).try_acquire(now_s)

    def tenants(self) -> list[str]:
        return sorted(self._buckets)
