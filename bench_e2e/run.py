"""bench_e2e: the repository's end-to-end + per-layer benchmark.

    python3 bench_e2e/run.py --seed S                      # everything
    python3 bench_e2e/run.py --workload W --seed S --seconds N --trace 0|1

Without ``--workload`` all four workloads run, one after the other.  Each
measurement happens in a fresh child process (``measure.py``), one at a
time, pinned to one core, with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONHASHSEED=0``.  ``--trace 0`` measures the end-to-end metrics with
tracing off.  ``--trace 1`` repeats the run with spans on, checks that
tracing changed no decision and reports the per-layer metrics; ``--trace
both`` (the default) reports both sets.  Every metric is printed as
``workload metric value unit``; the last line of standard output for each
workload is the JSON object the benchmark contract asks for.  README.md has
the metric and workload tables.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3        # set-ups per reported setup_s, which is their median
#: What seed 0 decided at ``run_seconds`` when the benchmark was added.  A
#: seed's decisions repeat bit for bit, so against these any movement is a
#: change of behaviour, which the cross-seed bounds of ``BENCHMARK.json``
#: (three times the spread *between* seeds) are too wide to show.
BASELINE = json.loads((HERE / "seed0_baseline.json").read_text("utf-8"))
BASELINE_TOLERANCE = 0.001     # absolute, on quality_mean and offload_ratio


def parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only workload input")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="sizes the timed phase (work = rate x seconds)")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    parser.add_argument("--smoke", action="store_true",
                        help="~300 requests per workload, timings meaningless")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args: argparse.Namespace, workload: str, traced: bool,
            setup_only: bool = False) -> dict:
    """Run one child to completion and return the document it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"bench_e2e: measuring {workload} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, spec: dict, workload: str) -> dict:
    """All the runs one workload needs; prints its lines, returns its result.

    The untraced run always happens: it gives the end-to-end metrics, and a
    traced run is checked against it (same decisions, and the throughput it
    lost is ``trace.overhead_share``).  Set-up is repeated only when
    ``setup_s`` is reported.
    """
    report_end_to_end = args.trace in ("0", "both")
    repeats = SETUP_REPEATS if report_end_to_end and not args.smoke else 1
    setups = [measure(args, workload, False, setup_only=True)
              ["end_to_end"]["setup_s"] for _ in range(repeats - 1)]
    plain = measure(args, workload, False)
    setups.append(plain["end_to_end"]["setup_s"])
    plain["end_to_end"]["setup_s"] = statistics.median(setups)
    plain["diagnostics"]["setup_s_samples"] = setups
    documents = {"untraced": plain}
    attempted, failed = plain["attempted"], plain["failed"]
    problems = list(plain["problems"])
    verdict = "no baseline for these arguments"
    if (args.seed, args.seconds, args.smoke) == (0, spec["run_seconds"], False):
        # A later change may decide differently (reported); it may not decide
        # worse (failed).
        recorded = BASELINE[workload]
        same = plain["decision_digest"] == recorded["decision_digest"]
        verdict = ("same as" if same else "DIFFERS from") \
            + " the seed-0 baseline"
        for key in ("quality_mean", "offload_ratio"):
            now = plain["end_to_end"][key]
            if now < recorded[key] - BASELINE_TOLERANCE:
                failed += 1
                problems.append(
                    f"{key} {now!r} is more than {BASELINE_TOLERANCE} below "
                    f"the seed-0 baseline {recorded[key]!r}")

    for phase, counts in plain["phases"].items():
        print(f"# {workload} phase {phase}: attempted {counts['attempted']} "
              f"succeeded {counts['succeeded']} failed {counts['failed']}")
    print(f"# {workload} decision_digest {plain['decision_digest']} "
          f"({verdict})")
    print(f"# {workload} latency_samples "
          f"{plain['phases']['timed']['attempted']} "
          f"(p99, a diagnostic: "
          f"{plain['diagnostics']['latency_p99_ms']:.4g} ms)")

    metrics: dict[str, dict] = {}
    if report_end_to_end:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": plain["end_to_end"][entry["name"]],
                "unit": entry["unit"]}

    if args.trace in ("1", "both"):
        traced = documents["traced"] = measure(args, workload, True)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        for key, was, now in (
                [("decision_digest", plain["decision_digest"],
                  traced["decision_digest"])]
                + [(key, plain["end_to_end"][key], traced["end_to_end"][key])
                   for key in ("quality_mean", "offload_ratio")]):
            if was != now:
                failed += 1
                problems.append(f"tracing changed {key}: {was} untraced, "
                                f"{now} traced")
        traced["per_layer"]["trace.overhead_share"] = 1.0 - (
            traced["end_to_end"]["throughput_rps"]
            / plain["end_to_end"]["throughput_rps"])
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {
                "value": traced["per_layer"][entry["name"]],
                "unit": entry["unit"]}
        for warning in traced["trace_warnings"]:
            print(f"bench_e2e: {workload}: trace: {warning}", file=sys.stderr)

    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
    for problem in problems[:10]:
        print(f"bench_e2e: {workload}: FAILED: {problem}", file=sys.stderr)

    if not args.smoke:      # two smoke runs may share the directory
        OUT_DIR.mkdir(exist_ok=True)
        with (OUT_DIR / f"result_{workload}.json").open("w") as fh:
            json.dump(documents, fh, indent=1)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec)
    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    results = [run_workload(args, spec, name) for name in names]
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
