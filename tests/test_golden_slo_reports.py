"""Golden SLO-report pins for three adversarial serving scenarios.

Each scenario runs seeded and deterministic, and its
:meth:`ServingReport.slo_report` — p99/p50 latency, shed rate, per-model
split, scaling timeline — is compared verbatim against
``tests/golden/slo_reports.json``.  The three scenarios cover the
adversarial surface:

* ``flash_crowd_shed`` — a flash-crowd storm against a queue-depth-capped
  cluster: load shedding engages, the shed timeline is pinned;
* ``tenant_skew_autoscale`` — drifting tenant-skew traffic with a live
  :class:`BiasAutoscaler` driving replica changes: the scaling timeline is
  pinned;
* ``chaos_storm`` — the full composition (kill + restore, slow shard,
  scheduled faults, crash + WAL recovery mid-crowd): the post-recovery SLO
  surface is pinned.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_golden_slo_reports.py --write

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.wal import Checkpointer
from repro.runtime import (
    AutoscalerTickSource,
    CrashRecoverySource,
    FaultScheduleSource,
    ReplicaKillSource,
    ServiceHolder,
    SlowShardSource,
    TraceArrivalSource,
)
from repro.serving.autoscaler import BiasAutoscaler
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ModelDeployment
from repro.workload import SyntheticDataset
from repro.workload.adversarial import FlashCrowd, flash_crowd_trace
from tests.adversarial_traces import tenant_skew_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "slo_reports.json"

SEED = 11
BANK = 80

SCENARIOS = ["flash_crowd_shed", "tenant_skew_autoscale", "chaos_storm"]


def _build(seed: int = SEED) -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(
        ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    )
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _sim(service: ICCacheService,
         max_queue_depth: int | None = None) -> ClusterSimulator:
    return ClusterSimulator(ClusterConfig(deployments=[
        ModelDeployment(service.models[service.small_name], replicas=4),
        ModelDeployment(service.models[service.large_name], replicas=1),
    ], max_queue_depth=max_queue_depth))


def _scenario_flash_crowd_shed() -> dict:
    service, dataset = _build()
    sim = _sim(service, max_queue_depth=4)
    trace = flash_crowd_trace(
        60, 1.0,
        [FlashCrowd(at_s=15, ramp_s=5, hold_s=10, decay_s=10,
                    step_mult=8.0, spike_mult=4.0)],
        seed=3,
    )
    arrivals = TraceArrivalSource.from_trace(
        trace, dataset.online_requests(150),
        service.pipeline.route_batch, seed=7)
    report = sim.run_sources([arrivals],
                             on_complete=service.pipeline.on_complete)
    return report.slo_report()


def _scenario_tenant_skew_autoscale() -> dict:
    service, dataset = _build()
    sim = _sim(service)
    trace = tenant_skew_trace(120, 2.5, zipf_start=1.0, zipf_end=2.0,
                              rotate_hot_every_s=30.0, bucket_seconds=5.0,
                              seed=5)
    arrivals = TraceArrivalSource.from_trace(
        trace, dataset.online_requests(300),
        service.pipeline.route_batch, seed=9)
    autoscaler = AutoscalerTickSource(
        BiasAutoscaler(cooldown_steps=2, ema_alpha=0.3),
        service.small_name, bias_fn=service.router.current_bias,
        interval_s=5.0, horizon_s=120.0)
    report = sim.run_sources([arrivals, autoscaler],
                             on_complete=service.pipeline.on_complete)
    return report.slo_report()


def _scenario_chaos_storm() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        service, dataset = _build()
        holder = ServiceHolder(service)
        checkpointer = Checkpointer(service, tmp)
        checkpointer.checkpoint()
        sim = _sim(service, max_queue_depth=6)
        trace = flash_crowd_trace(
            60, 1.0,
            [FlashCrowd(at_s=15, ramp_s=5, hold_s=10, decay_s=10,
                        step_mult=8.0, spike_mult=4.0)],
            seed=3,
        )
        arrivals = TraceArrivalSource.from_trace(
            trace, dataset.online_requests(150), holder.route_batch, seed=7)
        kill = ReplicaKillSource(service.small_name, kills=[(18.0, 2)],
                                 restore_after_s=15.0)
        slow = SlowShardSource([(25.0, 40.0)], penalty_s=0.5,
                               model_names=[service.large_name])
        faults = FaultScheduleSource(holder,
                                     retrieval_windows=[(20.0, 30.0)])
        crash = CrashRecoverySource(holder, checkpointer, at_s=22.0)
        with warnings.catch_warnings():
            # Mid-storm recovery replays an admission tail; the warning is
            # expected here (see tests/test_chaos.py).
            warnings.filterwarnings("ignore", message=".*bit-identity.*")
            report = sim.run_sources([arrivals, kill, slow, faults, crash],
                                     on_complete=holder.on_complete)
        return report.slo_report()


def capture() -> dict:
    """Run all three adversarial scenarios and collect their SLO reports."""
    return {
        "flash_crowd_shed": _scenario_flash_crowd_shed(),
        "tenant_skew_autoscale": _scenario_tenant_skew_autoscale(),
        "chaos_storm": _scenario_chaos_storm(),
    }


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        "`PYTHONPATH=src python tests/test_golden_slo_reports.py --write`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_slo_report_matches_golden(captured: dict, golden: dict,
                                   scenario: str):
    assert captured[scenario] == golden[scenario], (
        f"SLO report of {scenario!r} diverged from the pinned golden run; "
        "if the change is intentional, regenerate "
        "tests/golden/slo_reports.json"
    )


def test_goldens_exercise_the_slo_surface(golden: dict):
    """Sanity on the pinned content, so a regen can't silently pin a no-op."""
    assert golden["flash_crowd_shed"]["n_shed"] > 0
    assert 0 < golden["flash_crowd_shed"]["shed_rate"] < 1
    assert golden["tenant_skew_autoscale"]["scaling"], \
        "autoscale scenario pinned no scaling events"
    assert golden["chaos_storm"]["scaling"], \
        "chaos scenario pinned no kill/restore events"
    for scenario in SCENARIOS:
        assert golden[scenario]["latency_s"]["p99"] > 0
        assert golden[scenario]["n_served"] > 0


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_slo_reports.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
