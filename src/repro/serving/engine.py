"""Micro-batching policy for the serve loop.

The paper's serving stack (section 5) pays retrieval cost per request; at
production scale the standard fix is micro-batching — hold arrivals for at
most ``max_wait_s`` or until ``max_batch`` of them accumulate, then run
embedding + stage-1 retrieval for the whole batch as one vectorized index
pass (``search_batch`` down the :mod:`repro.vectorstore` stack).  Routing
and generation stay per-request: they are stateful (the section-4.2 bandit
updates online) and the cluster simulator schedules them individually.

Components:

* :class:`BatchPolicy` — the size/timeout knobs; the default is the batch
  of one, so a request routed alone is not a special case.
* :class:`RequestBatcher` — the accumulation state machine; pure policy, no
  clock of its own, so both the discrete-event simulator
  (:class:`repro.runtime.sources.TraceArrivalSource`) and a wall-clock
  server can drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BatchPolicy:
    """Size/timeout micro-batching policy.

    A batch is dispatched as soon as it holds ``max_batch`` items, or
    ``max_wait_s`` after its first item arrived, whichever comes first —
    the classic bounded-staleness batching rule (latency cost is at most
    ``max_wait_s`` of extra queueing per request).  The default,
    ``max_batch=1``, dispatches every item as it arrives.  A wait that is
    not finite is refused: its tail batch would flush at ``now = inf``.
    """

    max_batch: int = 1
    max_wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not 0 <= self.max_wait_s < math.inf:
            raise ValueError(
                f"max_wait_s must be finite and >= 0, got {self.max_wait_s}")


class RequestBatcher:
    """Accumulates items into micro-batches under a :class:`BatchPolicy`.

    The batcher is clock-free: callers pass ``now`` into :meth:`add` and
    read :attr:`deadline` to learn when the open batch must be force-flushed.
    ``generation`` increments on every flush so schedulers can recognize
    stale timers (a timer armed for a batch that size-flushed already).
    """

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        self._pending: list = []
        self.deadline: float | None = None   # when the open batch expires
        self.generation = 0                   # batches flushed so far

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, item: object, now: float) -> list | None:
        """Park ``item``; returns a full batch if this add filled one.

        When the returned value is ``None`` and :attr:`deadline` is set, the
        caller must arrange a :meth:`flush` no later than that time.
        """
        if not self._pending:
            self.deadline = now + self.policy.max_wait_s
        self._pending.append(item)
        if len(self._pending) >= self.policy.max_batch:
            return self.flush()
        return None

    def flush(self) -> list:
        """Drain and return the open batch (empty list if nothing pending)."""
        batch, self._pending = self._pending, []
        self.deadline = None
        if batch:
            self.generation += 1
        return batch
