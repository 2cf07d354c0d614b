"""Golden seeded-output pins for the four serve paths.

The serve paths (``serve``, ``serve_batch``, and the cluster run of
``pipeline.route_batch`` as a batch of one and micro-batched) are re-run on
a small seeded scenario and compared
field-by-field against ``tests/golden/serve_paths.json``.  The golden file
was captured before the contiguous-array IVF refactor, so these tests prove
that vectorized retrieval and stage-2 scoring preserve every routing choice,
selection count, and (rounded) response quality bit-for-bit.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_golden_serve_paths.py --write

and review the diff of the golden file like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.serving.engine import BatchPolicy
from repro.workload.datasets import SyntheticDataset

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "serve_paths.json"

SEED = 11
BANK = 120
N_INLINE = 40
N_CLUSTER = 60


def _build(seed: int = SEED) -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(
        ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _cluster_sim(service: ICCacheService) -> ClusterSimulator:
    return ClusterSimulator(ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=4),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ]))


def _snap_outcomes(outcomes) -> list[list]:
    return [[o.choice.model_name, round(o.result.quality, 12),
             o.result.n_examples, o.bypassed] for o in outcomes]


def _snap_records(report) -> list[list]:
    return [[r.model_name, round(r.quality, 12), r.n_examples]
            for r in report.records]


def capture() -> dict:
    """Run the four seeded serve scenarios and snapshot their outputs."""
    out = {}

    service, dataset = _build()
    requests = dataset.online_requests(N_INLINE)
    out["serve"] = _snap_outcomes([service.serve(r, load=0.2) for r in requests])
    out["serve_stats"] = [service.stats.served, service.stats.offloaded,
                          service.stats.router_updates,
                          service.stats.proxy_updates]

    service, dataset = _build()
    requests = dataset.online_requests(N_INLINE)
    out["serve_batch"] = _snap_outcomes(service.serve_batch(requests, load=0.2))

    service, dataset = _build()
    requests = dataset.online_requests(N_CLUSTER)
    report = _cluster_sim(service).run(
        [(i * 0.3, r) for i, r in enumerate(requests)],
        service.pipeline.route_batch, on_complete=service.pipeline.on_complete,
    )
    out["cluster"] = _snap_records(report)

    service, dataset = _build()
    requests = dataset.online_requests(N_CLUSTER)
    report = _cluster_sim(service).run(
        [(i * 0.05, r) for i, r in enumerate(requests)],
        service.pipeline.route_batch, on_complete=service.pipeline.on_complete,
        policy=BatchPolicy(max_batch=8, max_wait_s=0.25),
    )
    out["cluster_batched"] = _snap_records(report)
    return out


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        "`PYTHONPATH=src python tests/test_golden_serve_paths.py --write`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [
    "serve", "serve_stats", "serve_batch", "cluster", "cluster_batched",
])
def test_serve_path_matches_golden(captured: dict, golden: dict, path: str):
    assert captured[path] == golden[path], (
        f"seeded outputs of {path!r} diverged from the pinned golden run; "
        "if the change is intentional, regenerate tests/golden/serve_paths.json"
    )


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_serve_paths.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
