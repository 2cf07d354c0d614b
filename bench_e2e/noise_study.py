"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 bench_e2e/noise_study.py --runs 10             # seeds 1..10
    python3 bench_e2e/noise_study.py --runs 8 --same-seed 0

Runs ``run.py --workload W --trace 0`` ``--runs`` times per workload, one
seed per run (or always ``--same-seed``), and prints for each metric its
min / median / max, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- the
figure a bound in ``BENCHMARK.json`` has to stay three times above -- and
how far the farthest single run lies from the median.  The
uncorrected timings of the same runs (``raw_*``, read from the diagnostics
``run.py`` leaves in ``out/``) are listed beside them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--same-seed", type=int, default=None,
                        help="every run uses this seed (default: 1, 2, ...)")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    walls: dict[str, list[float]] = {}
    for run in range(args.runs):
        seed = args.same_seed if args.same_seed is not None else 1 + run
        for workload in names:              # interleaved, as the driver's are
            start = time.perf_counter()
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            walls.setdefault(workload, []).append(time.perf_counter() - start)
            if done.returncode != 0:
                print(f"run {run} of {workload} (seed {seed}) exited "
                      f"{done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            series = values.setdefault(workload, {})
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            diagnostics = json.loads(
                (ROOT / spec["paths"][0] / "out" / f"result_{workload}.json")
                .read_text())["untraced"]["diagnostics"]
            for name in ("raw_throughput_rps", "raw_latency_p50_ms",
                         "raw_latency_p95_ms", "mean_probe_ratio"):
                series.setdefault(name, []).append(diagnostics[name])
            print(f"run {run} seed {seed} {workload}: "
                  f"{walls[workload][-1]:.1f} s", file=sys.stderr)

    worst = 0.0
    for workload in names:
        print(f"\n{workload}  (wall per run: median "
              f"{statistics.median(walls[workload]):.1f} s, "
              f"max {max(walls[workload]):.1f} s)")
        print(f"  {'metric':<20}{'min':>12}{'median':>12}{'max':>12}"
              f"{'iqr/median':>12}{'farthest':>10}{'bound':>8}")
        for name, series in values[workload].items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bounds[name])
            farthest = max(abs(v - median) for v in series) / median
            print(f"  {name:<20}{min(series):>12.5g}{median:>12.5g}"
                  f"{max(series):>12.5g}{spread:>12.4f}{farthest:>10.3f}"
                  f"{bounds.get(name, ''):>8}")
    print(f"\nlargest spread/bound outside setup_s: {worst:.2f} "
          f"(the driver accepts below 1, aim below 0.33)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
