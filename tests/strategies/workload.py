"""Hypothesis strategies for adversarial workload scenarios.

Each strategy draws *parameters* for the seed-stable generators in
:mod:`repro.workload.adversarial` and returns the built object, so a
property test receives a real ``ArrivalTrace`` (or parameter dict) and the
shrinker minimizes over scenario structure — fewer crowds, gentler skew,
shorter traces — rather than over raw floats.

Durations are kept small (tens to hundreds of simulated seconds) because
properties downstream expand traces into arrivals or whole serving runs;
the nightly profile gets its depth from example *count*, not example size.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.workload.adversarial import FlashCrowd, flash_crowd_trace
from repro.workload.trace import ArrivalTrace
from tests.adversarial_traces import (
    CompositeTrace,
    TenantSkewTrace,
    TopicBurstTrace,
    composite_trace,
    tenant_skew_trace,
    topic_burst_trace,
)

__all__ = [
    "seeds",
    "flash_crowds",
    "flash_crowd_traces",
    "tenant_skew_traces",
    "topic_burst_traces",
    "composite_traces",
    "adversarial_traces",
    "chaos_windows",
    "gateway_workloads",
]


def seeds() -> st.SearchStrategy[int]:
    """Seeds for the generators' ``seed=`` parameters."""
    return st.integers(min_value=0, max_value=2**31 - 1)


def _durations(lo: float = 30.0, hi: float = 600.0) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


@st.composite
def flash_crowds(draw, max_at_s: float = 500.0) -> FlashCrowd:
    """One flash-crowd episode with sane (but adversarial) shape."""
    return FlashCrowd(
        at_s=draw(st.floats(min_value=0.0, max_value=max_at_s)),
        ramp_s=draw(st.floats(min_value=0.0, max_value=60.0)),
        hold_s=draw(st.floats(min_value=0.0, max_value=120.0)),
        decay_s=draw(st.floats(min_value=0.0, max_value=120.0)),
        step_mult=draw(st.floats(min_value=1.0, max_value=25.0)),
        spike_mult=draw(st.floats(min_value=0.0, max_value=10.0)),
    )


@st.composite
def flash_crowd_traces(draw) -> ArrivalTrace:
    duration = draw(_durations())
    crowds = draw(st.lists(flash_crowds(max_at_s=duration), min_size=1,
                           max_size=4))
    return flash_crowd_trace(
        duration_s=duration,
        base_rps=draw(st.floats(min_value=0.1, max_value=10.0)),
        crowds=crowds,
        bucket_seconds=draw(st.sampled_from([1.0, 2.0, 5.0])),
        burstiness=draw(st.floats(min_value=0.0, max_value=1.5)),
        seed=draw(seeds()),
    )


@st.composite
def tenant_skew_traces(draw) -> TenantSkewTrace:
    duration = draw(_durations(lo=60.0))
    rotate = draw(st.one_of(
        st.none(), st.floats(min_value=10.0, max_value=duration)))
    return tenant_skew_trace(
        duration_s=duration,
        mean_rps=draw(st.floats(min_value=0.1, max_value=10.0)),
        n_tenants=draw(st.integers(min_value=2, max_value=32)),
        zipf_start=draw(st.floats(min_value=0.5, max_value=1.5)),
        zipf_end=draw(st.floats(min_value=1.0, max_value=2.5)),
        rotate_hot_every_s=rotate,
        bucket_seconds=draw(st.sampled_from([5.0, 10.0, 30.0])),
        burstiness=draw(st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(seeds()),
    )


@st.composite
def topic_burst_traces(draw) -> TopicBurstTrace:
    duration = draw(_durations(lo=60.0))
    n_bursts = draw(st.integers(min_value=1, max_value=6))
    return topic_burst_trace(
        duration_s=duration,
        mean_rps=draw(st.floats(min_value=0.1, max_value=10.0)),
        n_bursts=n_bursts,
        burst_mult=draw(st.floats(min_value=1.5, max_value=15.0)),
        bucket_seconds=draw(st.sampled_from([1.0, 2.0, 5.0])),
        seed=draw(seeds()),
    )


@st.composite
def composite_traces(draw) -> CompositeTrace:
    return composite_trace(
        days=draw(st.integers(min_value=1, max_value=4)),
        seconds_per_day=draw(st.floats(min_value=300.0, max_value=1800.0)),
        mean_rps=draw(st.floats(min_value=0.1, max_value=5.0)),
        peak_to_trough=draw(st.floats(min_value=1.0, max_value=25.0)),
        crowds_per_day=draw(st.integers(min_value=0, max_value=2)),
        crowd_step_mult=draw(st.floats(min_value=1.0, max_value=12.0)),
        maintenance_depth=draw(st.floats(min_value=0.05, max_value=1.0)),
        burstiness=draw(st.floats(min_value=0.0, max_value=1.0)),
        bucket_seconds=draw(st.sampled_from([5.0, 10.0, 30.0])),
        seed=draw(seeds()),
    )


def adversarial_traces() -> st.SearchStrategy[ArrivalTrace]:
    """Any adversarial ``ArrivalTrace`` (composites contribute theirs)."""
    return st.one_of(
        flash_crowd_traces(),
        tenant_skew_traces(),
        topic_burst_traces(),
        composite_traces().map(lambda c: c.trace),
    )


@st.composite
def chaos_windows(draw, duration_s: float,
                  max_windows: int = 3) -> list[tuple[float, float]]:
    """Non-degenerate ``(start, end)`` fault windows inside ``[0, duration)``."""
    n = draw(st.integers(min_value=1, max_value=max_windows))
    windows = []
    for _ in range(n):
        start = draw(st.floats(min_value=0.0, max_value=duration_s * 0.9))
        length = draw(st.floats(min_value=duration_s * 0.01,
                                max_value=duration_s * 0.5))
        windows.append((start, min(start + length, duration_s)))
    return windows


@st.composite
def gateway_workloads(draw, max_clients: int = 4,
                      max_ops: int = 5) -> dict:
    """Concurrent-client plans for the serving gateway.

    Draws a small fleet of async clients, each with its own tenant and an
    op sequence mixing blocking ``serve``, micro-batched ``serve_batch``,
    and fire-and-forget ``submit`` — the interleavings the gateway's
    single-writer discipline must serialize.  The shrinker minimizes over
    plan structure (fewer clients, shorter sequences, smaller batches).
    """
    n_clients = draw(st.integers(min_value=2, max_value=max_clients))
    clients = []
    for c in range(n_clients):
        n_ops = draw(st.integers(min_value=1, max_value=max_ops))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from(["serve", "serve_batch", "submit"]))
            if kind == "serve_batch":
                ops.append((kind, draw(st.integers(min_value=1,
                                                   max_value=4))))
            else:
                ops.append((kind, 1))
        clients.append({"tenant": f"tenant-{c % 2}", "ops": ops})
    return {"clients": clients, "seed": draw(seeds())}
