"""The perf harness's baseline gate: both branches, without benchmarking.

``run_baseline_gate`` is driven with hand-built results/baseline dicts so
the tests exercise the gate logic itself — the missing-baseline warning
(which must be loud, not a silent pass), the pass path, each of the
twenty-six exact work counters failing in both directions, and sections one
side did not run being skipped — in milliseconds.  One more guard: the harness must
import with numpy and ``repro`` alone, because that is all CI's perf jobs
install.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import perf_harness
import repro


def _results(iterations: int = 9, distance_columns: int = 305,
             rows_ranked: float = 0.0, fit_ms: float = 50.0,
             calls: float = 502.7175, minted: float = 5.0625,
             solves: float = 0.8075, scored: float = 1.0,
             batch_calls: float = 461.5, batch_scored: float = 0.0625,
             materialised: float = 20.06, rescored: float = 0.06,
             batch_minted: float = 5.165, batch_passes: float = 0.26,
             journal_calls: float = 53.975, admit_calls: float = 196.9,
             writes: float = 1.0,
             frames: float = 2.83, wal_bytes: float = 1807.15,
             replay_minted: float = 2840 / 2550,
             replay_calls: float = 93008 / 2550, replay_passes: int = 2,
             iterations_per_request: float = 3.0, futures: float = 1.0,
             timers: float = 0.0, sends: float = 2.0,
             gateway_calls: float = 172.0) -> dict:
    return {
        "search": {"1000": {"qps": 50_000.0}},
        "kmeans": {"3000": {"kmeans_fit_ms": fit_ms,
                            "iterations": iterations,
                            "distance_columns": distance_columns}},
        "lifecycle": {"10000": {"evict_one_us": 2e3,
                                "rows_ranked_per_pass": rows_ranked}},
        "floor": {"3000": {"requests": 400,
                           "calls_per_request": calls,
                           "generators_minted_per_request": minted,
                           "proxy_solves_per_request": solves,
                           "score_batch_calls_per_request": scored}},
        "batch": {"3000": {"requests": 400, "batch": 16,
                           "calls_per_request": batch_calls,
                           "results_materialised_per_request": materialised,
                           "rescored_probes_per_request": rescored,
                           "score_batch_calls_per_request": batch_scored,
                           "generators_minted_per_request": batch_minted,
                           "seeding_passes_per_request": batch_passes}},
        "journal": {"1500": {"requests": 400,
                             "journal_calls_per_request": journal_calls,
                             "admit_calls_per_admission": admit_calls,
                             "journal_writes_per_request": writes,
                             "wal_frames_per_request": frames,
                             "wal_bytes_per_request": wal_bytes}},
        "replay": {"1500": {"samples": 2550,
                            "generators_minted_per_replay_sample":
                                replay_minted,
                            "calls_per_replay_sample": replay_calls,
                            "seeding_passes_per_tick": replay_passes}},
        "gateway": {"1000": {"requests": 400,
                             "loop_iterations_per_request":
                                 iterations_per_request,
                             "futures_per_request": futures,
                             "timer_handles_per_request": timers,
                             "socket_sends_per_request": sends,
                             "gateway_calls_per_request": gateway_calls}},
    }


def _baseline(tmp_path, **kwargs):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(_results(**kwargs)), encoding="utf-8")
    return path


def test_harness_imports_without_the_test_extras():
    """``perf-smoke`` and ``nightly-scale`` run ``pip install -e .`` only:
    a pytest or hypothesis import (say, through ``tests/strategies``) would
    stop the gate before it compares anything."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['hypothesis'] = sys.modules['pytest'] = "
         "None; import runpy; runpy.run_path(sys.argv[1])",
         perf_harness.__file__],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestMissingBaseline:
    def test_warns_and_skips(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "baseline.json"
        code = perf_harness.run_baseline_gate(_results(), missing)
        out = capsys.readouterr().out
        assert code == 0
        assert "no baseline" in out
        assert "gate skipped" in out
        assert str(missing) in out
        assert "REGRESSION" not in out

    def test_directory_is_not_a_baseline(self, tmp_path, capsys):
        code = perf_harness.run_baseline_gate(_results(), tmp_path)
        assert code == 0
        assert "gate skipped" in capsys.readouterr().out


class TestPresentBaseline:
    def test_passes_when_no_regression(self, tmp_path, capsys):
        code = perf_harness.run_baseline_gate(_results(),
                                              _baseline(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline check passed" in out
        assert "gate skipped" not in out

    def test_fails_on_regression(self, tmp_path, capsys):
        code = perf_harness.run_baseline_gate(
            _results(iterations=10), _baseline(tmp_path, iterations=9))
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION: kmeans iterations at N=3000 changed: 10 " \
            "!= baseline 9" in out
        assert "baseline check passed" not in out

    def test_timings_are_never_compared(self, tmp_path):
        """Wall-clock belongs to ``bench_e2e``: a row 100x slower than the
        file's passes as long as the counts agree."""
        assert perf_harness.run_baseline_gate(
            _results(fit_ms=5000.0), _baseline(tmp_path, fit_ms=50.0)) == 0

    def test_kmeans_work_counter_gates_exactly_in_both_directions(
            self, tmp_path, capsys):
        baseline = _baseline(tmp_path, iterations=9, distance_columns=305)
        for key, moves in (("iterations", (8, 10)),
                           ("distance_columns", (304, 306))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{key: moved}), baseline)
                assert code == 1
                assert f"kmeans {key} at N=3000 changed: {moved}" \
                    in capsys.readouterr().out

    def test_evict_one_rows_ranked_gates_exactly_in_both_directions(
            self, tmp_path, capsys):
        baseline = _baseline(tmp_path, rows_ranked=0.0)
        for moved in (4.0, 10000.0):
            code = perf_harness.run_baseline_gate(
                _results(rows_ranked=moved), baseline)
            assert code == 1
            assert ("lifecycle rows_ranked_per_pass at N=10000 "
                    f"changed: {moved}") in capsys.readouterr().out

    def test_floor_counters_gate_exactly_in_both_directions(
            self, tmp_path, capsys):
        baseline = _baseline(tmp_path)
        for argument, key, moves in (
                ("calls", "calls_per_request", (502.715, 502.72)),
                ("minted", "generators_minted_per_request", (5.06, 5.065)),
                ("solves", "proxy_solves_per_request", (0.805, 1.415)),
                ("scored", "score_batch_calls_per_request", (0.9975, 2.0))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{argument: moved}), baseline)
                assert code == 1
                assert f"floor {key} at N=3000 changed: {moved}" \
                    in capsys.readouterr().out

    def test_batch_counters_gate_exactly_in_both_directions(
            self, tmp_path, capsys):
        """The moved values are the per-candidate tail's (40 results per
        stage-1 query, plus one per probe), a batched kernel that files
        no receipt (every probe rescored) and stage 2 scored per request
        (one ``score_batch`` each), a batch that mints a generator more or
        seeds per call (no pass), and a step the other way."""
        baseline = _baseline(tmp_path)
        for argument, key, moves in (
                ("batch_calls", "calls_per_request", (461.4975, 461.5025)),
                ("materialised", "results_materialised_per_request",
                 (20.0575, 41.0)),
                ("rescored", "rescored_probes_per_request", (0.0575, 1.0)),
                ("batch_scored", "score_batch_calls_per_request",
                 (0.06, 1.0)),
                ("batch_minted", "generators_minted_per_request",
                 (5.1625, 5.1675)),
                ("batch_passes", "seeding_passes_per_request", (0.0, 0.2625))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{argument: moved}), baseline)
                assert code == 1
                assert f"batch {key} at N=3000 changed: {moved}" \
                    in capsys.readouterr().out

    def test_journal_counters_gate_exactly_in_both_directions(
            self, tmp_path, capsys):
        """The moved values are the ungrouped journal's (three
        ``manager_counters`` per admission, one ``write`` per frame: 63.58
        calls, 4.6575 writes and frames, 1904.0075 bytes), an admission
        that builds a standalone example and copies it in (301.0925 calls)
        and a step the other way."""
        baseline = _baseline(tmp_path)
        for argument, key, moves in (
                ("journal_calls", "journal_calls_per_request",
                 (53.9725, 63.58)),
                ("admit_calls", "admit_calls_per_admission",
                 (194.8975, 301.0925)),
                ("writes", "journal_writes_per_request", (0.9975, 4.6575)),
                ("frames", "wal_frames_per_request", (2.8275, 4.6575)),
                ("wal_bytes", "wal_bytes_per_request",
                 (1807.1475, 1904.0075))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{argument: moved}), baseline)
                assert code == 1
                assert f"journal {key} at N=1500 changed: {moved}" \
                    in capsys.readouterr().out

    def test_replay_counter_gates_exactly_in_both_directions(
            self, tmp_path, capsys):
        """2.0 generators is a draw that re-derives the per-(model, request)
        word on every sample; 1.0 would be a memo that no longer misses
        where it must (a teacher's first decode of a request).  47.11 calls
        is a sample that builds and renders a whole ``generate`` result.  No
        seeding pass is a tick that mints every sample per call."""
        baseline = _baseline(tmp_path)
        for argument, key, moves in (
                ("replay_minted", "generators_minted_per_replay_sample",
                 (1.0, 2.0)),
                ("replay_calls", "calls_per_replay_sample",
                 (93007 / 2550, 120128 / 2550)),
                ("replay_passes", "seeding_passes_per_tick", (0, 3))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{argument: moved}), baseline)
                assert code == 1
                assert (f"replay {key} at N=1500 changed: {moved}"
                        in capsys.readouterr().out)

    def test_gateway_counters_gate_exactly_in_both_directions(
            self, tmp_path, capsys):
        """The moved values are the old stream-and-task transport's (6
        iterations, 4 futures, 1 timer handle, 372 calls) and a step the
        other way: a count that fell without the baseline being regenerated
        is as much a finding as one that rose."""
        baseline = _baseline(tmp_path)
        for argument, key, moves in (
                ("iterations_per_request", "loop_iterations_per_request",
                 (2.0, 6.0)),
                ("futures", "futures_per_request", (0.0, 4.0)),
                ("timers", "timer_handles_per_request", (0.0025, 1.0)),
                ("sends", "socket_sends_per_request", (1.0, 2.0025)),
                ("gateway_calls", "gateway_calls_per_request",
                 (171.0, 372.0))):
            for moved in moves:
                code = perf_harness.run_baseline_gate(
                    _results(**{argument: moved}), baseline)
                assert code == 1
                assert f"gateway {key} at N=1000 changed: {moved}" \
                    in capsys.readouterr().out

    def test_lifecycle_rows_skipped_when_absent(self, tmp_path):
        """A section (or pool size) only one side ran is not compared:
        a smoke run without lifecycle/kmeans, and a baseline without."""
        smoke = _results()
        del smoke["lifecycle"]
        del smoke["kmeans"]
        del smoke["floor"]
        del smoke["batch"]
        del smoke["journal"]
        del smoke["replay"]
        del smoke["gateway"]
        assert perf_harness.run_baseline_gate(
            smoke, _baseline(tmp_path)) == 0
        old = _results()
        del old["lifecycle"]
        (tmp_path / "old.json").write_text(json.dumps(old),
                                           encoding="utf-8")
        assert perf_harness.run_baseline_gate(
            _results(rows_ranked=9.0), tmp_path / "old.json") == 0
        other_size = _results()
        other_size["kmeans"] = {"6000": {"iterations": 13,
                                         "distance_columns": 459}}
        assert perf_harness.run_baseline_gate(
            other_size, _baseline(tmp_path)) == 0
