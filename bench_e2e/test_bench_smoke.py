"""``run.py --smoke`` prints what ``BENCHMARK.json`` promises, and repeats.

No timing is asserted: a smoke run serves ~300 requests per workload.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def start_smoke() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(process: subprocess.Popen) -> list[str]:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    assert "FAILED" not in err, err
    return out.splitlines()


def test_smoke_prints_every_metric_once_and_repeats():
    first, second = start_smoke(), start_smoke()   # one per core
    lines, again = finish(first), finish(second)

    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m["unit"]
               for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in [*workloads, *metrics]:
        assert NAME.match(name), name

    printed: dict[tuple[str, str], list[str]] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] in workloads:
            printed.setdefault((parts[0], parts[1]), []).append(parts[3])
            float(parts[2])
    for workload in workloads:
        for metric, unit in metrics.items():
            assert printed.get((workload, metric)) == [unit], (workload, metric)
    assert len(printed) == len(workloads) * len(metrics)

    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(workloads)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1

    def digests(output: list[str]) -> list[str]:
        return [line for line in output if " decision_digest " in line]

    assert len(digests(lines)) == len(workloads)
    assert digests(lines) == digests(again)
