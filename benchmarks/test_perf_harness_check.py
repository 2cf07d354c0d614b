"""The perf harness's baseline gate: both branches, without benchmarking.

``run_baseline_gate`` is driven with hand-built results/baseline dicts so
the tests exercise the gate logic itself — the missing-baseline warning
(which must be loud, not a silent pass), the pass path, and every
regression-failure path (serve, search, runtime, persistence restore,
retrain amortization, the K-Means fit time and its exact work counters,
the N=1M scale rows) — in milliseconds.
"""

from __future__ import annotations

import json

import perf_harness


def _results(serve_qps: float = 1000.0, search_qps: float = 50_000.0,
             restore_per_s: float = 1e4, retrain_s: float = 1.0,
             tick_s: float = 0.05, decay_us: float = 100.0,
             evict_us: float = 1e4, evict_one_us: float = 2e3,
             lifecycle_restore: float = 2e5,
             pool_restore: float = 2e5, pool_decay_us: float = 2e3,
             fit_ms: float = 50.0, distance_columns: int = 305,
             rows_ranked: float = 4.0) -> dict:
    return {
        "serve": {"800": {"qps": serve_qps}},
        "search": {"1000": {"qps": search_qps}},
        "runtime": {"events_per_s": 1e6, "sim_requests_per_s": 1e4},
        "persistence": {"save_examples_per_s": 1e4,
                        "restore_examples_per_s": restore_per_s},
        "lifecycle": {"10000": {"decay_us_per_tick": decay_us,
                                "evict_us_per_pass": evict_us,
                                "evict_one_us": evict_one_us,
                                "rows_ranked_per_pass": rows_ranked,
                                "restore_examples_per_s":
                                    lifecycle_restore}},
        "churn": {"1000": {"retrain_s": retrain_s}},
        "kmeans": {"3000": {"kmeans_fit_ms": fit_ms, "iterations": 9,
                            "distance_columns": distance_columns}},
        "scale": {"retrain_s_per_tick": tick_s,
                  "two_pass_us_per_query": 100.0,
                  "pool": {"restore_examples_per_s": pool_restore,
                           "decay_us_per_tick": pool_decay_us}},
    }


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
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results()), encoding="utf-8")
        code = perf_harness.run_baseline_gate(_results(), baseline)
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline check passed" in out
        assert "gate skipped" not in out

    def test_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(serve_qps=1000.0)),
                            encoding="utf-8")
        # 50% serve-throughput drop, well past the 30% allowance.
        code = perf_harness.run_baseline_gate(
            _results(serve_qps=500.0), baseline)
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION: serve throughput at bank=800 regressed" in out

    def test_max_regression_is_honoured(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(serve_qps=1000.0)),
                            encoding="utf-8")
        dropped = _results(serve_qps=800.0)  # a 20% drop
        assert perf_harness.run_baseline_gate(
            dropped, baseline, max_regression=0.30) == 0
        assert perf_harness.run_baseline_gate(
            dropped, baseline, max_regression=0.10) == 1

    def test_pre_v2_baseline_serve_row_still_gates(self, tmp_path, capsys):
        """A pre-v2 baseline has one unkeyed serve row; it maps to the
        default 800-example bank so old baselines keep gating."""
        baseline = tmp_path / "baseline.json"
        old = _results(serve_qps=1000.0)
        old["serve"] = {"qps": 1000.0}
        baseline.write_text(json.dumps(old), encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(serve_qps=500.0), baseline)
        assert code == 1
        assert "bank=800" in capsys.readouterr().out

    def test_fails_on_restore_throughput_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(restore_per_s=1e4)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(restore_per_s=5e3), baseline)
        assert code == 1
        assert "snapshot restore" in capsys.readouterr().out

    def test_fails_when_retrain_gets_slower(self, tmp_path, capsys):
        """Times gate in the other direction: bigger is the regression."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(retrain_s=1.0)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(retrain_s=2.0), baseline)
        assert code == 1
        assert "retrain at N=1000" in capsys.readouterr().out

    def test_fails_when_kmeans_fit_gets_slower(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(fit_ms=50.0)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(fit_ms=100.0), baseline)
        assert code == 1
        assert "kmeans fit at N=3000 regressed" in capsys.readouterr().out

    def test_kmeans_work_counter_gates_exactly_in_both_directions(
            self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(distance_columns=305)),
                            encoding="utf-8")
        for moved in (304, 306):
            code = perf_harness.run_baseline_gate(
                _results(distance_columns=moved), baseline)
            assert code == 1
            assert f"kmeans distance_columns at N=3000 changed: {moved}" \
                in capsys.readouterr().out

    def test_fails_on_scale_tick_amortization_regression(self, tmp_path,
                                                         capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(tick_s=0.05)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(tick_s=0.20), baseline)
        assert code == 1
        assert "N=1M retrain amortization" in capsys.readouterr().out

    def test_fails_on_lifecycle_decay_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(decay_us=100.0)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(decay_us=200.0), baseline)
        assert code == 1
        assert "lifecycle decay tick at N=10000" in capsys.readouterr().out

    def test_fails_on_lifecycle_eviction_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(evict_us=1e4)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(evict_us=2e4), baseline)
        assert code == 1
        assert "lifecycle eviction pass at N=10000" in \
            capsys.readouterr().out

    def test_fails_on_lifecycle_evict_one_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(evict_one_us=2e3)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(evict_one_us=1e4), baseline)
        assert code == 1
        assert "lifecycle evict-one pass at N=10000" in \
            capsys.readouterr().out

    def test_evict_one_rows_ranked_gates_exactly_in_both_directions(
            self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(rows_ranked=4.0)),
                            encoding="utf-8")
        for moved in (3.75, 10000.0):
            code = perf_harness.run_baseline_gate(
                _results(rows_ranked=moved), baseline)
            assert code == 1
            assert ("lifecycle evict-one rows_ranked_per_pass at N=10000 "
                    f"changed: {moved}") in capsys.readouterr().out

    def test_fails_on_lifecycle_restore_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(lifecycle_restore=2e5)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(lifecycle_restore=1e5), baseline)
        assert code == 1
        assert "lifecycle restore at N=10000" in capsys.readouterr().out

    def test_fails_on_scale_pool_restore_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(pool_restore=2e5)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(pool_restore=1e5), baseline)
        assert code == 1
        assert "N=1M pool restore" in capsys.readouterr().out

    def test_fails_on_scale_pool_decay_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results(pool_decay_us=2e3)),
                            encoding="utf-8")
        code = perf_harness.run_baseline_gate(
            _results(pool_decay_us=4e3), baseline)
        assert code == 1
        assert "N=1M maintenance decay tick" in capsys.readouterr().out

    def test_lifecycle_rows_skipped_when_absent(self, tmp_path):
        """A run without the lifecycle section (or a pre-v3 baseline
        without one) must not trip the new gates."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results()), encoding="utf-8")
        smoke = _results()
        del smoke["lifecycle"]
        del smoke["kmeans"]
        del smoke["scale"]["pool"]
        assert perf_harness.run_baseline_gate(smoke, baseline) == 0
        old = _results()
        del old["lifecycle"]
        del old["scale"]["pool"]
        (tmp_path / "old.json").write_text(json.dumps(old),
                                           encoding="utf-8")
        assert perf_harness.run_baseline_gate(
            _results(), tmp_path / "old.json") == 0

    def test_scale_rows_skipped_when_absent(self, tmp_path):
        """A smoke run (no --full) has no scale section; the baseline's
        scale rows must not fail the gate against it."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_results()), encoding="utf-8")
        smoke = _results()
        del smoke["scale"]
        assert perf_harness.run_baseline_gate(smoke, baseline) == 0
