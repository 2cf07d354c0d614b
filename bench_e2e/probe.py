"""Host-speed probe and the correction arithmetic built on it.

This box is a 2-core shared VM whose speed drifts 1.03x-1.5x between
1-10 s windows (CPU time inflates identically, so it is contention, not
preemption).  Raw timings therefore do not repeat.  The benchmark owns a
fixed-work probe and runs it between operations, every ``PROBE_EVERY_S``
of accumulated work.  Each timed interval is then scaled by
``PROBE_NOMINAL_S / observed`` of the probe nearest to it in time, where
``observed`` is the mean over the probes within ``SMOOTH_S`` of that one,
i.e. reported as the time it would have taken on a host running the probe
at its nominal speed.  Probe time is excluded from every reported timing.
There is no switch that turns the correction off; raw values are kept
beside the corrected ones as diagnostics only.

The probe is made of the primitives a served request is made of -- minting
seeded generators, blake2b hashing, small float64 vector arithmetic, a
256x64 float32 mat-vec with a stable argsort, short list/dict/sort work and
a few regex substitutions -- because contention slows different kinds of
work by different amounts: a pure-Python counting loop tracked the serve
path's slowdown with correlation 0.81-0.86 (1 s windows, 60 s of serving on
a drifting host), this mix with 0.95 and a log-log slope of 0.96, which
took the spread of window means from 10.4% raw to 3.2% (the loop: 6.6%).
It calls nothing from ``repro``, so no change to the program moves it.
"""

from __future__ import annotations

import hashlib
import re
import time

import numpy as np

#: Duration of one probe on the reference box at nominal speed.  Frozen: a
#: change here (or to the probe's work) rescales every timing metric of
#: every workload.
PROBE_NOMINAL_S = 0.0030
#: Accumulated operation time between two probes (~10% overhead).
PROBE_EVERY_S = 0.030
#: A probe's duration is averaged with those of the probes this close to it
#: in time (~15 probes in all) before it is used.  On a busy host single
#: probes read 1x-5x nominal within one second, and dividing by so noisy a
#: figure inflates every corrected time (E[1/x] > 1/E[x]) by an amount that
#: depends on how busy the host is.  Six runs of ``serve_repeat`` on a host
#: 1.6x-1.8x slow read a p50 9.1% above the quiet-host value with single
#: probes and 0.1% below it with this window, and the run-to-run range of
#: their p95 fell from 11% to 7%; six runs of ``serve_batch16`` at 1.1x-1.6x:
#: p50 11.8% -> 8.2% above, p95 range 38% -> 23%.
SMOOTH_S = 0.25

_ROUNDS = 44
_PATTERNS = [re.compile(p) for p in (
    r"\b\d{3}-\d{2}-\d{4}\b", r"[\w.]+@[\w.]+", r"\b\d{16}\b",
    r"https?://\S+")]
_TEXT = ("question_answering what is the capital of some country and why "
         "does it matter for travel 12345 ") * 2


class Probe:
    """The fixed unit of work; :meth:`run` returns how long it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((256, 64)).astype(np.float32)
        self._vector = rng.standard_normal(64).astype(np.float32)

    def run(self) -> float:
        matrix, vector = self._matrix, self._vector
        start = time.perf_counter()
        for k in range(_ROUNDS):
            noise = np.random.Generator(np.random.PCG64(k)).normal(
                0.0, 0.05, size=64)
            hashlib.blake2b(f"probe\x1f{k}".encode(), digest_size=8).digest()
            unit = noise / np.linalg.norm(noise)
            scores = np.einsum("ij,j->i", matrix, vector)
            top = np.argsort(-scores, kind="stable")[:20]
            rows = [(int(i), float(scores[i])) for i in top]
            rows.sort(key=lambda row: row[1])
            by_key = {row[0]: row for row in rows}
            for row in rows:
                by_key[row[0]]
            for _ in range(10):
                float(np.dot(unit, noise))
            text = _TEXT
            for pattern in _PATTERNS:
                text = pattern.sub("[X]", text)
        return time.perf_counter() - start


def nearest_probe(times: np.ndarray, probe_times: np.ndarray) -> np.ndarray:
    """Index of the probe closest in time to each entry of ``times``.

    ``probe_times`` must be ascending.  Every instant between two probe
    midpoints maps to the same probe, so one factor applies to a whole
    interval and correction cannot reorder the samples inside it.
    """
    if len(probe_times) == 0:
        raise ValueError("no probes recorded")
    boundaries = (probe_times[1:] + probe_times[:-1]) / 2.0
    return np.searchsorted(boundaries, times, side="right")


def smoothed(probe_times: np.ndarray, probe_durations: np.ndarray
             ) -> np.ndarray:
    """Per probe, the mean duration of the probes within ``SMOOTH_S`` of it
    (itself included)."""
    sums = np.concatenate([[0.0], np.cumsum(probe_durations)])
    low = np.searchsorted(probe_times, probe_times - SMOOTH_S, side="left")
    high = np.searchsorted(probe_times, probe_times + SMOOTH_S, side="right")
    return (sums[high] - sums[low]) / (high - low)


def correction_factors(times: np.ndarray, probe_times: np.ndarray,
                       probe_durations: np.ndarray,
                       nominal_s: float = PROBE_NOMINAL_S) -> np.ndarray:
    """Factor each interval at ``times`` is multiplied by."""
    probe_times = np.asarray(probe_times, dtype=float)
    index = nearest_probe(np.asarray(times, dtype=float), probe_times)
    return nominal_s / smoothed(
        probe_times, np.asarray(probe_durations, dtype=float))[index]


class Meter:
    """Times intervals and interleaves probes between them.

    ``begin()``/``end()`` bracket one interval; ``begin`` first runs the
    probe when ``PROBE_EVERY_S`` of interval time has accumulated since the
    last one.  Intervals carry the label current at ``begin`` so one meter
    serves set-up, warm-up and the timed phase.
    """

    def __init__(self) -> None:
        self._probe = Probe()
        self._since_probe = PROBE_EVERY_S    # probe before the first interval
        self.label = ""
        self.labels: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probe_times: list[float] = []
        self.probe_durations: list[float] = []

    def probe_now(self) -> None:
        duration = self._probe.run()
        self.probe_times.append(time.perf_counter() - duration / 2.0)
        self.probe_durations.append(duration)
        self._since_probe = 0.0

    def begin(self) -> float:
        if self._since_probe >= PROBE_EVERY_S:
            self.probe_now()
        return time.perf_counter()

    def end(self, start: float) -> None:
        """Close the interval opened at ``start``."""
        end = time.perf_counter()
        self.add_interval(start, end)
        self._since_probe += end - start

    def add_interval(self, start: float, end: float) -> None:
        """Book an interval measured elsewhere (e.g. module imports)."""
        self.labels.append(self.label)
        self.starts.append(start)
        self.ends.append(end)

    def intervals(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(raw, corrected) lengths in seconds of every ``label`` interval."""
        mask = np.array([lab == label for lab in self.labels], dtype=bool)
        starts = np.asarray(self.starts)[mask]
        ends = np.asarray(self.ends)[mask]
        raw = ends - starts
        factors = correction_factors((starts + ends) / 2.0,
                                     np.asarray(self.probe_times),
                                     np.asarray(self.probe_durations))
        return raw, raw * factors

    def mean_probe_ratio(self) -> float:
        """Mean observed/nominal probe time: >1 means a slow host."""
        return float(np.mean(self.probe_durations)) / PROBE_NOMINAL_S
