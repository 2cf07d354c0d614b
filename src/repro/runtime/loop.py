"""The deterministic discrete-event loop.

This is the scheduling core extracted from the serving simulator: a binary
heap of ``(time, seq, callback, payload)`` entries, where ``seq`` is a
monotonic insertion counter.  An event is ``callback(payload)`` at
``time``; whoever schedules it names the callback, so the loop keeps no
vocabulary of event kinds and no handler registry.  The tie-break rule is
the determinism contract of the whole serving layer — two events at the
same simulated instant always dispatch in the order they were scheduled,
never in payload or hash order, so seeded runs are bit-identical across
processes and platforms (see ``tests/test_golden_serve_paths.py``).

The loop itself knows nothing about clusters, batching, or autoscaling;
:mod:`repro.runtime.sources` provides the pluggable event producers and
:class:`repro.serving.cluster.ClusterSimulator` composes them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable


class EventLoop:
    """A deterministic discrete-event scheduler.

    * :meth:`schedule` enqueues ``callback(payload)`` at a finite
      simulated time >= ``now``.
    * :meth:`run` pops events in ``(time, seq)`` order until the heap is
      empty, advancing :attr:`now` monotonically.

    Callbacks may schedule further events (that is how service-completion
    and batch-timeout chains work).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = itertools.count()
        self.scheduled = 0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, callback: Callable[[Any], None],
                 payload: Any = None) -> None:
        """Enqueue ``callback(payload)`` at ``time``; a time before
        ``now``, infinite or NaN is an error (a NaN stamp would run
        ``now`` backwards)."""
        if not self.now <= time < math.inf:
            raise ValueError(
                f"cannot schedule {callback!r} at {time}: need a finite "
                f"time >= now={self.now}"
            )
        heapq.heappush(self._heap,
                       (float(time), next(self._seq), callback, payload))
        self.scheduled += 1

    def step(self) -> bool:
        """Dispatch the single next event; False when the heap is empty."""
        if not self._heap:
            return False
        self.now, _, callback, payload = heapq.heappop(self._heap)
        callback(payload)
        self.processed += 1
        return True

    def run(self) -> int:
        """Dispatch until the heap drains; returns events processed by
        *this call* (:attr:`processed` keeps the loop-lifetime total)."""
        start = self.processed
        while self.step():
            pass
        return self.processed - start

    def run_until(self, until: float) -> int:
        """Dispatch events *strictly before* ``until``, then advance to it.

        The incremental counterpart of :meth:`run`, for callers that feed
        events in from outside the loop (the serving gateway's live
        sessions): everything scheduled before ``until`` fires — including
        cascades the callbacks schedule inside the window — events at
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
        if not self.now <= until < math.inf:
            raise ValueError(f"cannot run until {until}: need a finite "
                             f"time >= now={self.now}")
        start = self.processed
        while self._heap and self._heap[0][0] < until:
            self.step()
        self.now = float(until)
        return self.processed - start
