"""The serving cluster: queues, replicas, and live scaling over the runtime.

Since the event-runtime refactor, the scheduling core lives in
:mod:`repro.runtime` — a deterministic :class:`~repro.runtime.loop.EventLoop`
plus pluggable event sources — and :class:`ClusterSimulator` is a thin
composition over it: the simulator owns cluster *state* (per-model FIFO
queues, continuous-batching slot accounting, the run report) and the event
*callbacks* that mutate it, while arrivals, batch flushes, autoscaler ticks,
and maintenance ticks are produced by the sources attached to a run.  Every
router is a batch router, ``route_batch(requests, sim) -> [(model_name,
examples)]``; a request routed alone is a batch of one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.llm.icl import ExampleView
from repro.llm.model import SimulatedLLM
from repro.runtime.loop import EventLoop
from repro.runtime.sources import TraceArrivalSource
from repro.serving.engine import BatchPolicy
from repro.serving.records import (
    ScalingEvent,
    ServedRequest,
    ServingReport,
    ShedEvent,
)
from repro.workload.request import Request

# A routing decision: which model serves the request, with which examples.
RoutingDecision = tuple[str, list[ExampleView]]


@dataclass
class ModelDeployment:
    """How many replicas of a model the cluster runs.

    Mirrors the paper's section-6 setup, where the 16-GPU budget is split
    between small-model replicas (many, cheap) and large-model replicas
    (few, expensive); each replica sustains ``batch_slots`` concurrent
    requests, the continuous-batching abstraction of a vLLM worker.
    ``replicas`` is live state: :meth:`ClusterSimulator.apply_scaling`
    changes it mid-run when an autoscaler source drives the cluster.
    """

    model: SimulatedLLM
    replicas: int

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(
                f"{self.model.name}: replicas must be >= 1, got {self.replicas}"
            )

    @property
    def total_slots(self) -> int:
        return self.replicas * self.model.spec.batch_slots

    @property
    def total_gpus(self) -> int:
        return self.replicas * self.model.spec.gpus_per_replica


@dataclass
class ClusterConfig:
    """Cluster composition, checked against a GPU budget.

    The default budget is 16, the paper's 16xA100 evaluation cluster
    (section 6); pass ``gpu_budget=None`` for unconstrained what-if sweeps.
    The same budget bounds *live* scale-ups applied during a run (see
    :meth:`ClusterSimulator.apply_scaling`).
    """

    deployments: list[ModelDeployment]
    gpu_budget: int | None = 16   # the paper's 16xA100 cluster; None = unchecked
    max_queue_depth: int | None = None  # per-model backlog cap; None = unbounded

    def __post_init__(self) -> None:
        names = [d.model.name for d in self.deployments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model deployments: {names}")
        if self.gpu_budget is not None:
            used = sum(d.total_gpus for d in self.deployments)
            if used > self.gpu_budget:
                raise ValueError(
                    f"deployments need {used} GPUs, budget is {self.gpu_budget}"
                )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


class _ModelQueue:
    """FIFO queue plus slot accounting for one deployed model.

    The continuous-batching abstraction of the section-6 setup: a
    deployment exposes ``replicas * batch_slots`` concurrent slots (a vLLM
    worker's in-flight capacity, substituted), requests past that wait in
    FIFO order, and :attr:`load` — occupancy *including* queued work — is
    the utilization signal the section-4.2 router bias and the autoscaler
    both read.
    """

    def __init__(self, deployment: ModelDeployment) -> None:
        self.deployment = deployment
        self.pending: deque = deque()
        self.in_service = 0

    @property
    def free_slots(self) -> int:
        return self.deployment.total_slots - self.in_service

    @property
    def load(self) -> float:
        """Occupancy including queued work, relative to capacity."""
        capacity = self.deployment.total_slots
        return (self.in_service + len(self.pending)) / capacity


class ClusterSimulator:
    """Cluster state and event callbacks over the deterministic runtime.

    The event model behind the paper's serving experiments (section 6's
    16xA100 cluster, Fig. 12/13): an arrival routes a request and
    enqueues it; a finish (:meth:`_finish`) frees a continuous-batching
    slot and starts queued work; a flush dispatches a retrieval
    micro-batch; autoscale
    and maintenance ticks adjust capacity and curate the cache mid-run.
    Routing callbacks see the live simulator, so load-aware policies read
    :meth:`load` / :meth:`total_load` at decision time — the signal the
    paper's Request Router (section 4.2) biases on, and via
    :meth:`apply_scaling` the same signal resizes deployments live.

    :meth:`run` replays arrivals through one batch router;
    :meth:`run_sources` accepts any
    :class:`~repro.runtime.sources.EventSource` composition for richer
    scenarios (open-loop load, live autoscaling, online maintenance).
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._queues = {d.model.name: _ModelQueue(d) for d in config.deployments}
        self._loop: EventLoop | None = None
        self._events_prior = 0   # processed by earlier runs' loops
        self.report = ServingReport()
        self._on_complete: Callable[[Request, ServedRequest], None] | None = None
        # Optional (model_name, request, now) -> extra seconds of TTFT,
        # installed by chaos sources (slow-shard injection); None = healthy.
        self.latency_penalty: Callable[[str, Request, float], float] | None = None

    # ----- state the router (and sources) can read ----------------------

    @property
    def now(self) -> float:
        """Simulated time of the active (or last) run."""
        return self._loop.now if self._loop is not None else 0.0

    @property
    def events_processed(self) -> int:
        """Events dispatched across this simulator's runs (cumulative,
        consistent with the accumulative :attr:`report`)."""
        current = self._loop.processed if self._loop is not None else 0
        return self._events_prior + current

    def load(self, model_name: str) -> float:
        return self._queue(model_name).load

    def total_load(self) -> float:
        """System-wide occupancy in [0, inf); > 1 means queues are growing."""
        slots = sum(q.deployment.total_slots for q in self._queues.values())
        busy = sum(q.in_service + len(q.pending) for q in self._queues.values())
        return busy / slots if slots else 0.0

    def model_names(self) -> list[str]:
        return list(self._queues)

    def total_gpus(self) -> int:
        return sum(q.deployment.total_gpus for q in self._queues.values())

    def deployment(self, model_name: str) -> ModelDeployment:
        return self._queue(model_name).deployment

    # ----- simulation ---------------------------------------------------

    def run(self, arrivals: list[tuple[float, Request]],
            route_batch: Callable[[Sequence[Request], "ClusterSimulator"],
                                  list[RoutingDecision]],
            on_complete: Callable[[Request, ServedRequest], None] | None = None,
            policy: BatchPolicy | None = None) -> ServingReport:
        """Simulate the full arrival sequence; returns the completed report.

        Arrivals are micro-batched under ``policy`` (default: the batch of
        one) and routed by ``route_batch``; the batching delay is charged to
        each request's queue wait.  ``on_complete`` fires as each request
        finishes (simulation order), so online-learning policies can ingest
        feedback with realistic delay.
        """
        return self.run_sources([TraceArrivalSource(arrivals, route_batch,
                                                    policy)],
                                on_complete=on_complete)

    def run_sources(self, sources: Sequence,
                    on_complete: Callable[[Request, ServedRequest], None] | None = None,
                    ) -> ServingReport:
        """Drive an event-source composition to completion.

        Builds a fresh :class:`~repro.runtime.loop.EventLoop`, attaches
        ``sources`` in order (attach order breaks same-time ties — put
        arrival sources first), and runs until the event heap drains.
        Queue/replica state, the report, and :attr:`events_processed`
        carry over across runs on one simulator (matching the pre-runtime
        accumulation semantics); use a fresh ``ClusterSimulator`` per
        independently-measured run.
        """
        loop = self.start_sources(sources, on_complete=on_complete)
        loop.run()
        return self.report

    def start_sources(self, sources: Sequence,
                      on_complete: Callable[[Request, ServedRequest], None] | None = None,
                      ) -> EventLoop:
        """Open an *incremental* run: attach sources, but do not drain.

        Same setup as :meth:`run_sources` — fresh loop, sources attached
        in order — returning the live loop instead of
        running it to completion.  The caller then interleaves its own
        work with :meth:`advance_to` / :meth:`run_pending`, which is how
        the serving gateway feeds network arrivals into the identical
        event machinery the batch simulator runs (the determinism-
        equivalence contract of ``docs/GATEWAY.md``).
        """
        if self._loop is not None:
            self._events_prior += self._loop.processed
        loop = EventLoop()
        self._loop = loop
        self._on_complete = on_complete
        for source in sources:
            source.attach(loop, self)
        return loop

    def advance_to(self, until: float) -> int:
        """Process events strictly before ``until``; ``now`` lands on it.

        Incremental-run primitive (see :meth:`start_sources`).  The strict
        bound mirrors the batch path's tie-break: an arrival injected *at*
        the new watermark must precede any completion scheduled at the
        same instant, exactly as pre-scheduled arrivals do in
        :meth:`run_sources` (lower insertion seq).  Returns the number of
        events processed.
        """
        if self._loop is None:
            raise RuntimeError("no active run: call start_sources() first")
        return self._loop.run_until(until)

    def run_pending(self) -> int:
        """Drain every scheduled event (completion chains included).

        Incremental-run primitive: ends the in-flight work of a session —
        the gateway's graceful drain — by running the loop to idle.  Only
        safe when no earlier-stamped arrivals can still be injected;
        ``now`` afterwards sits at the last completion.
        """
        if self._loop is None:
            raise RuntimeError("no active run: call start_sources() first")
        return self._loop.run()

    # ----- host surface the event sources drive --------------------------

    def dispatch(self, arrivals: Sequence[tuple[Request, float]],
                 decisions: Sequence[RoutingDecision]) -> list[bool]:
        """Hand routed requests to the cluster: the one dispatch path.

        Each ``(request, arrival_s)`` enqueues on its decision's model at
        its own arrival stamp (:meth:`enqueue`), then the queues they
        joined drain (:meth:`drain`).  Returns which were accepted; the
        rest were shed.  One decision per arrival, or ``ValueError``
        before anything moves: a short list would drop requests unserved
        and unshed.
        """
        if len(decisions) != len(arrivals):
            raise ValueError(f"{len(decisions)} routing decisions for "
                             f"{len(arrivals)} arrivals")
        accepted, touched = [], []
        for (request, arrival_s), (model_name, examples) in zip(arrivals,
                                                                decisions):
            queue = self.enqueue(model_name, request, examples, arrival_s)
            accepted.append(queue is not None)
            if queue is not None:
                touched.append(queue)
        for queue in touched:
            self.drain(queue)
        return accepted

    def enqueue(self, model_name: str, request: Request,
                examples: list[ExampleView], arrival_s: float) -> _ModelQueue | None:
        """Queue a routed request; returns its queue (:meth:`dispatch`
        drains it).

        ``arrival_s`` is the request's *original* arrival time, which may
        predate ``now`` on the batched path — micro-batching delay is
        charged to queue wait, as the section-7 latency accounting
        requires.  When :attr:`ClusterConfig.max_queue_depth` is set and
        the model's backlog has reached it, the request is *shed* instead:
        a :class:`~repro.serving.records.ShedEvent` lands in the report and
        ``None`` is returned (callers must skip the drain).
        """
        queue = self._queue(model_name)
        depth = self.config.max_queue_depth
        if depth is not None and len(queue.pending) >= depth:
            self.report.shed.append(ShedEvent(
                time_s=self.now, model_name=model_name,
                request_id=request.request_id,
            ))
            return None
        queue.pending.append((request, examples, arrival_s))
        return queue

    def drain(self, queue: _ModelQueue) -> None:
        """Start queued work while free continuous-batching slots remain.

        Each started request generates immediately (quality and token
        counts are decided at start time; section 6's latency model) and
        schedules its own :meth:`_finish` at start + TTFT + decode — the
        event chain that frees the slot and admits the next request, i.e.
        continuous batching as an event process.
        """
        while queue.pending and queue.free_slots > 0:
            request, examples, arrival_s = queue.pending.popleft()
            queue.in_service += 1
            result = queue.deployment.model.generate(request, examples)
            penalty = 0.0
            if self.latency_penalty is not None:
                penalty = self.latency_penalty(
                    queue.deployment.model.name, request, self.now
                )
            record = ServedRequest(
                request_id=request.request_id,
                model_name=result.model_name,
                arrival_s=arrival_s,
                start_s=self.now,
                finish_s=self.now + result.total_s + penalty,
                ttft_s=result.ttft_s + penalty,
                quality=result.quality,
                prompt_tokens=result.prompt_tokens,
                output_tokens=result.output_tokens,
                n_examples=result.n_examples,
                cost=result.cost,
            )
            self._loop.schedule(
                record.finish_s, self._finish,
                (queue.deployment.model.name, record, request),
            )

    def apply_scaling(self, model_name: str, replicas_delta: int) -> int:
        """Apply a live replica-count change, clamped to the GPU budget.

        Scale-ups never push the cluster past ``config.gpu_budget`` (the
        change is truncated to whatever headroom remains); scale-downs
        never drop below one replica.  In-flight requests keep their slots
        — after a scale-down a deployment can transiently run more requests
        than its new slot count, and simply starts no new work until it
        drains back under.  Returns the delta actually applied and records
        a :class:`~repro.serving.records.ScalingEvent` when non-zero.
        """
        queue = self._queue(model_name)
        deployment = queue.deployment
        target = deployment.replicas + replicas_delta
        budget = self.config.gpu_budget
        if budget is not None and replicas_delta > 0:
            headroom = budget - (self.total_gpus() - deployment.total_gpus)
            target = min(target, headroom // deployment.model.spec.gpus_per_replica)
        target = max(1, target)
        applied = target - deployment.replicas
        if applied != 0:
            deployment.replicas = target
            self.report.scaling.append(ScalingEvent(
                time_s=self.now,
                model_name=model_name,
                requested_delta=replicas_delta,
                applied_delta=applied,
                replicas=target,
                total_gpus=self.total_gpus(),
            ))
            if applied > 0:
                # New capacity starts queued work immediately.
                self.drain(queue)
        return applied

    # ----- internals ------------------------------------------------------

    def _queue(self, model_name: str) -> _ModelQueue:
        try:
            return self._queues[model_name]
        except KeyError:
            known = ", ".join(self._queues)
            raise KeyError(f"model {model_name!r} not deployed; have: {known}") from None

    def _finish(self, payload: tuple[str, ServedRequest, Request]) -> None:
        """A request completed: free its slot, record, learn, drain.

        ``on_complete`` fires here — in simulation order, at the finish
        timestamp — so online learning (router/proxy updates, admission)
        observes realistic serving delay rather than decision-time state;
        the section-4 feedback loops depend on that ordering.
        """
        model_name, record, request = payload
        queue = self._queue(model_name)
        queue.in_service -= 1
        self.report.records.append(record)
        if self._on_complete is not None:
            self._on_complete(request, record)
        self.drain(queue)
