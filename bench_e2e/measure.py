"""One workload, measured once: the child process ``run.py`` starts.

Builds the workload's service, warms it up, sends the timed operations one
after the other with host-speed probes between them, checks every result,
and prints one JSON document.  With ``--trace 1`` the layer boundaries are
wrapped first (``tracing.py``) and the per-layer table is added.
"""

import time

_PROCESS_START = time.perf_counter()   # set-up time counts from here

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import resource
import traceback

import numpy as np

import probe
import tracing
import workloads


async def run_phase(workload, items, meter, recorder, label: str) -> dict:
    """Send ``items`` one after the other; time, check and count each."""
    phase = {"attempted": 0, "failed": 0, "problems": [], "decisions": [],
             "ok": [], "op_roots": [], "tick_roots": []}
    for done, item in enumerate(items):
        if label == "timed" and workload.tick_due(done):
            meter.label = "tick"
            start = meter.begin()
            if recorder is not None:
                root = recorder.begin(tracing.TICK)
                phase["tick_roots"].append(root)
            workload.tick()
            if recorder is not None:
                recorder.end(root)
            meter.end(start)
        meter.label = label
        problem = result = None
        start = meter.begin()
        if recorder is not None:
            root = recorder.begin(tracing.OP, workload.item_id(item))
            phase["op_roots"].append(root)
        try:
            result = await workload.op(item)
        except Exception:   # a failed operation is counted, the run goes on
            problem = traceback.format_exc(limit=4)
        if recorder is not None:
            recorder.end(root)
        meter.end(start)
        if problem is None:
            decisions, problem = workload.check(item, result)
            phase["decisions"] += decisions
        if problem is None:
            problem = workload.after_op()
        phase["attempted"] += 1
        phase["ok"].append(problem is None)
        if problem is not None:
            phase["failed"] += 1
            if len(phase["problems"]) < 5:
                phase["problems"].append(f"{label}: {problem}")
    return phase


def counts(phase: dict) -> dict:
    return {"attempted": phase["attempted"],
            "succeeded": phase["attempted"] - phase["failed"],
            "failed": phase["failed"]}


def trace_warnings(workload: str, layers: dict) -> list[str]:
    """Does the trace cover the run, and does the workload exercise only the
    layers it was built for?  Reported, never counted as program failures."""
    found = []
    if layers["trace.unattributed_share"] > 0.15:
        found.append("unattributed share "
                     f"{layers['trace.unattributed_share']:.3f} > 0.15")
    must_be_zero = []
    if workload == "gateway_serve":
        must_be_zero.append("vectorstore.retrain_count")
    if workload != "lifecycle_churn":
        must_be_zero += ["core.manager.evict_passes_per_req",
                         "core.manager.evicted_per_pass",
                         "core.cache.remove_us_per_evicted",
                         "persistence.checkpoints"]
    found += [f"{name} is {layers[name]}, expected 0"
              for name in must_be_zero if layers[name] != 0]
    return found


async def measure(args: argparse.Namespace) -> dict:
    traced = args.trace == 1
    sizes = workloads.sizes_for(args.workload, args.seconds, args.smoke)
    if args.setup_only:
        sizes = dataclasses.replace(sizes, ops=0)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    imports_done = time.perf_counter()
    workload.make_inputs()          # the benchmark's own work: not set-up

    meter = probe.Meter()
    meter.label = "setup"
    meter.add_interval(_PROCESS_START, imports_done)
    recorder = tracing.SpanRecorder() if traced else None
    await workload.setup(meter, recorder)
    try:
        warmup = await run_phase(workload, workload.warmup_items, meter,
                                 recorder, "warmup")
        stats = workload.service.stats
        mark = dataclasses.replace(stats)
        timed = await run_phase(workload, workload.timed_items, meter,
                                recorder, "timed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        invariant_problems = workload.invariants()
        layer_extras = workload.layer_extras() if traced else {}
    finally:
        await workload.teardown()

    phases = {
        "setup": {"attempted": len(workload.bank),
                  "succeeded": workload.seeded, "failed": 0},
        "warmup": counts(warmup),
        "timed": counts(timed),
    }
    document = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "phases": phases,
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": (warmup["failed"] + timed["failed"]
                   + len(invariant_problems)),
        "problems": (warmup["problems"] + timed["problems"]
                     + [f"invariant: {p}" for p in invariant_problems]),
        "end_to_end": {"setup_s": sum(
            float(meter.intervals(label)[1].sum())
            for label in ("setup", "recover", "warmup"))},
        "diagnostics": {"probes": len(meter.probe_times),
                        "mean_probe_ratio": meter.mean_probe_ratio()},
        "trace_warnings": [],
    }
    if args.setup_only:
        return document

    raw, corrected = meter.intervals("timed")
    tick_raw, tick_corrected = meter.intervals("tick")
    n_requests = timed["attempted"] * workload.batch
    served = stats.served - mark.served
    limit_ms = workloads.SLO_LIMIT_MS[args.workload]
    within = np.asarray(timed["ok"]) & (corrected * 1e3 <= limit_ms)
    document["end_to_end"].update({
        # Every timed operation and maintenance tick counts, the rare long
        # ones (lazy K-Means retrains, snapshots) included.
        "throughput_rps":
            n_requests / float(corrected.sum() + tick_corrected.sum()),
        "latency_p50_ms": float(np.percentile(corrected, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(corrected, 95)) * 1e3,
        "slo_ok_share": float(within.mean()),
        "quality_mean": ((stats.quality_sum - mark.quality_sum)
                         / max(1, stats.quality_count - mark.quality_count)),
        "offload_ratio": (stats.offloaded - mark.offloaded) / max(1, served),
        "peak_rss_mb": peak_rss_mb,
    })
    document["diagnostics"].update({
        "raw_throughput_rps": n_requests / float(raw.sum() + tick_raw.sum()),
        "raw_latency_p50_ms": float(np.percentile(raw, 50)) * 1e3,
        "raw_latency_p95_ms": float(np.percentile(raw, 95)) * 1e3,
        "latency_p99_ms": float(np.percentile(corrected, 99)) * 1e3,
        "timed_phase_raw_s": float(raw.sum() + tick_raw.sum()),
        "slo_limit_ms": limit_ms,
        "ticks": len(tick_raw),
        "final_examples": len(workload.service.cache),
    })
    if not args.smoke:      # two smoke runs may share the directory
        workloads.OUT_DIR.mkdir(exist_ok=True)
        np.savez(workloads.OUT_DIR / f"latencies_{args.workload}.npz",
                 raw=raw, corrected=corrected, probe_times=meter.probe_times,
                 probe_durations=meter.probe_durations)   # per operation
    digest = hashlib.sha256()
    for decision in timed["decisions"]:
        digest.update(repr(decision).encode("utf-8"))
    document["decision_digest"] = digest.hexdigest()
    if served != n_requests:
        document["failed"] += 1
        document["problems"].append(
            f"service counted {served} served requests, sent {n_requests}")

    if traced:
        op_factors = dict(zip(timed["op_roots"], (corrected / raw).tolist()))
        op_factors.update(zip(timed["tick_roots"],
                              (tick_corrected / tick_raw).tolist()))
        layers = tracing.per_layer_metrics(recorder, op_factors, n_requests)
        cache = workload.service.cache
        requests = [r for item in workload.timed_items
                    for r in (item if workload.batch > 1 else [item])]
        layers.update({
            "persistence.snapshot_bytes": 0.0,
            "persistence.recover_s":
                float(meter.intervals("recover")[1].sum()),
            "vectorstore.index_bytes_per_example":
                cache.index_nbytes / max(1, len(cache)),
            "vectorstore.recall_at_20":
                workloads.recall_at_k(workload.service, requests),
            # 1 - traced/untraced throughput: run.py has both runs.
            "trace.overhead_share": 0.0,
        })
        layers.update(layer_extras)
        document["per_layer"] = {name: layers[name]
                                 for name, _ in tracing.PER_LAYER}
        document["trace_warnings"] = trace_warnings(args.workload, layers)
        document["diagnostics"]["spans"] = len(recorder)
        if not args.smoke:
            recorder.write(workloads.OUT_DIR / f"trace_{args.workload}.json")
    return document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not args.smoke:      # timings of a smoke run mean nothing: two may
        allowed = sorted(os.sched_getaffinity(0))     # share the machine
        os.sched_setaffinity(0, {allowed[-1]})
    print(json.dumps(asyncio.run(measure(args))))


if __name__ == "__main__":
    main()
