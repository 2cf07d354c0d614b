"""The deterministic discrete-event loop.

This is the scheduling core extracted from the serving simulator: a binary
heap of typed :class:`Event`\\ s ordered by ``(time, seq)``, where ``seq`` is
a monotonic insertion counter.  The tie-break rule is the determinism
contract of the whole serving layer — two events at the same simulated
instant always dispatch in the order they were scheduled, never in payload
or hash order, so seeded runs are bit-identical across processes and
platforms (see ``tests/test_golden_serve_paths.py``).

The loop itself knows nothing about clusters, batching, or autoscaling;
:mod:`repro.runtime.sources` provides the pluggable event producers and
:class:`repro.serving.cluster.ClusterSimulator` composes them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence: a kind tag plus an opaque payload.

    ``kind`` selects the handler registered via :meth:`EventLoop.on`;
    ``payload`` is whatever that handler needs (a request, a batch
    generation stamp, ``None`` for bare ticks).  Events are immutable so a
    handler can reschedule one safely.
    """

    time: float
    kind: str
    payload: Any = None


class EventLoop:
    """A deterministic discrete-event scheduler.

    * :meth:`on` registers exactly one handler per event kind (duplicate
      registration is an error — silent override would make composition
      order-dependent in a way no test could pin).
    * :meth:`schedule` enqueues an event at a finite simulated time >=
      ``now``.
    * :meth:`run` pops events in ``(time, seq)`` order until the heap is
      empty, advancing :attr:`now` monotonically.

    Handlers receive the :class:`Event` and may schedule further events
    (that is how service-completion and batch-timeout chains work).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"loop cannot start at negative time: {start}")
        self.now = float(start)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self.scheduled = 0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler for ``kind`` events (one per kind)."""
        if kind in self._handlers:
            raise ValueError(f"handler for event kind {kind!r} already registered")
        self._handlers[kind] = handler

    def handler(self, kind: str) -> Callable[[Event], None] | None:
        """The registered handler for ``kind``, or ``None``."""
        return self._handlers.get(kind)

    def schedule(self, time: float, kind: str, payload: Any = None) -> Event:
        """Enqueue an event; a time before ``now``, infinite or NaN is an
        error (a NaN stamp would run ``now`` backwards)."""
        if not self.now <= time < math.inf:
            raise ValueError(
                f"cannot schedule {kind!r} at {time}: need a finite time "
                f">= now={self.now}"
            )
        event = Event(float(time), kind, payload)
        heapq.heappush(self._heap, (event.time, next(self._seq), event))
        self.scheduled += 1
        return event

    def step(self) -> Event | None:
        """Dispatch the single next event; returns it, or None when empty."""
        if not self._heap:
            return None
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        try:
            handler = self._handlers[event.kind]
        except KeyError:
            known = ", ".join(sorted(self._handlers)) or "<none>"
            raise KeyError(
                f"no handler for event kind {event.kind!r}; registered: {known}"
            ) from None
        handler(event)
        self.processed += 1
        return event

    def run(self) -> int:
        """Dispatch until the heap drains; returns events processed by
        *this call* (:attr:`processed` keeps the loop-lifetime total)."""
        start = self.processed
        while self.step() is not None:
            pass
        return self.processed - start

    def run_until(self, until: float) -> int:
        """Dispatch events *strictly before* ``until``, then advance to it.

        The incremental counterpart of :meth:`run`, for callers that feed
        events in from outside the loop (the serving gateway's live
        sessions): everything scheduled before ``until`` fires — including
        cascades the handlers schedule inside the window — events at
        exactly ``until`` stay queued, and :attr:`now` lands on ``until``.

        The strict ``<`` is deliberate and is the cross-path determinism
        contract: a batch run pre-schedules its arrivals, so an arrival at
        time ``t`` carries a lower insertion seq than any completion
        scheduled *during* the run at the same ``t`` and fires first.  An
        incremental caller injecting that arrival by hand reproduces the
        same order only if ``run_until(t)`` leaves the completion at ``t``
        in the heap for the next advance.  Returns events processed by
        this call.
        """
        if until < self.now:
            raise ValueError(
                f"cannot run until {until} before now={self.now}"
            )
        start = self.processed
        while self._heap and self._heap[0][0] < until:
            self.step()
        self.now = float(until)
        return self.processed - start
