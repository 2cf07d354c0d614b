"""Time-series views over serving reports (Fig. 12's per-minute panels)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serving.records import ServedRequest, ServingReport


@dataclass
class WindowedSeries:
    """A per-window aggregate: ``times`` are window midpoints in seconds.

    The data behind the paper's time-series panels — e.g. Fig. 12's
    per-minute offload ratio and Fig. 2's load-variability traces.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must align")


def windowed_series(report: ServingReport, window_s: float,
                    value_fn: Callable[[list[ServedRequest]], float],
                    by: str = "arrival") -> WindowedSeries:
    """Aggregate records into fixed windows by arrival (or finish) time.

    ``value_fn`` maps the records of one window to a scalar (e.g. offload
    ratio, mean latency).  Empty windows get NaN so plots show gaps rather
    than fabricated zeros.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    if by not in ("arrival", "finish"):
        raise ValueError(f"by must be 'arrival' or 'finish', got {by!r}")
    if not report.records:
        return WindowedSeries(times=np.array([]), values=np.array([]))

    def timestamp(record: ServedRequest) -> float:
        return record.arrival_s if by == "arrival" else record.finish_s

    horizon = max(timestamp(r) for r in report.records)
    n_windows = int(horizon // window_s) + 1
    buckets: list[list[ServedRequest]] = [[] for _ in range(n_windows)]
    for record in report.records:
        buckets[int(timestamp(record) // window_s)].append(record)

    times = (np.arange(n_windows) + 0.5) * window_s
    values = np.array([
        value_fn(bucket) if bucket else float("nan") for bucket in buckets
    ])
    return WindowedSeries(times=times, values=values)


def offload_ratio_fn(small_models: set[str]) -> Callable[[list[ServedRequest]], float]:
    """Window aggregator: fraction of requests served by small models."""

    def fn(records: list[ServedRequest]) -> float:
        return sum(1 for r in records if r.model_name in small_models) / len(records)

    return fn


def replica_series(report: ServingReport, model_name: str,
                   initial_replicas: int) -> WindowedSeries:
    """The replica-count step function of one model across a run.

    Built from the report's :class:`~repro.serving.records.ScalingEvent`
    timeline (live autoscaling runs); ``times`` are the instants the count
    changed, starting at t=0 with ``initial_replicas``.
    """
    times = [0.0]
    values = [float(initial_replicas)]
    for event in report.scaling:
        if event.model_name != model_name:
            continue
        times.append(event.time_s)
        values.append(float(event.replicas))
    return WindowedSeries(times=np.asarray(times), values=np.asarray(values))
