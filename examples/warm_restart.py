"""Warm restart: checkpoint a live service, crash it, recover, continue.

The durable-state demo (``docs/PERSISTENCE.md``): an IC-Cache service
serves the first half of a seeded stream, takes a checkpoint (full
snapshot), keeps mutating the cache through a journaled maintenance
window (decay + section-4.3 replay), then "crashes".  A new process-worth
of state is rebuilt from snapshot + write-ahead journal and finishes the
stream.  A control service that never crashed serves the identical
stream, and the two halves are compared decision by decision — the
persistence subsystem's guarantee is that they match *bit for bit*.  Run:

    python examples/warm_restart.py [checkpoint-dir]

The checkpoint directory (a fresh temp one by default) is left behind:
``snapshot.json`` + its ``.bin`` sidecar + the binary journal ``wal.bin``,
which ``python -m repro.persistence.cli wal <dir>`` prints frame by frame.
"""

import sys
import tempfile
from pathlib import Path

from repro import ICCacheConfig
from repro.core.config import ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence import Checkpointer, WriteAheadLog
from repro.workload import SyntheticDataset

SEED = 7
BANK = 150
N_REQUESTS = 60
HALF = N_REQUESTS // 2


def build_service() -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False),
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def lifecycle_window(service: ICCacheService) -> dict:
    """Cache maintenance between checkpoint and crash (journaled)."""
    service.clock.advance(2 * 3600.0)  # two decay periods elapse
    return service.run_maintenance(replay=True)


def decisions(outcomes) -> list[tuple]:
    return [(o.request.request_id, o.choice.model_name,
             round(o.result.quality, 12)) for o in outcomes]


def main() -> None:
    # --- the control: one service, never interrupted ----------------------
    control, dataset = build_service()
    requests = dataset.online_requests(N_REQUESTS)
    control_first = decisions(
        [control.serve(r, load=0.3) for r in requests[:HALF]]
    )
    lifecycle_window(control)
    control_second = decisions(
        [control.serve(r, load=0.3) for r in requests[HALF:]]
    )

    # --- the crash-recovery run -------------------------------------------
    workdir = Path(sys.argv[1] if len(sys.argv) > 1
                   else tempfile.mkdtemp(prefix="ic_cache_ckpt_"))
    service, dataset = build_service()
    requests = dataset.online_requests(N_REQUESTS)
    first = decisions([service.serve(r, load=0.3) for r in requests[:HALF]])

    checkpointer = Checkpointer(service, workdir)
    snapshot_path = checkpointer.checkpoint()
    maintenance = lifecycle_window(service)
    wal_records = WriteAheadLog.read(checkpointer.wal_path)
    print(f"checkpoint: {snapshot_path} "
          f"({snapshot_path.stat().st_size} bytes, "
          f"{len(service.cache)} examples)")
    print(f"journaled window: {len(wal_records)} WAL records in "
          f"{checkpointer.wal_path} ({checkpointer.wal.size_bytes} bytes; "
          f"{maintenance['replayed']} replays, "
          f"{maintenance['improved']} improved)")

    del service  # ----------------- crash: process state is gone ----------

    recovered = Checkpointer.recover(workdir)
    print(f"recovered: {len(recovered.cache)} examples, "
          f"{recovered.stats.served} served, "
          f"clock={recovered.clock.now:.0f}s")
    second = decisions(
        [recovered.serve(r, load=0.3) for r in requests[HALF:]]
    )

    # --- the verdict -------------------------------------------------------
    assert first == control_first, "pre-checkpoint halves diverged"
    matches = sum(1 for a, b in zip(second, control_second) if a == b)
    print(f"\npost-recovery continuation: {matches}/{len(second)} "
          f"decisions bit-identical to the never-crashed control")
    assert second == control_second, "warm restart diverged from control"
    assert recovered.stats == control.stats
    print("warm-restart determinism holds: recovered == never stopped")

    sample = second[:3]
    for request_id, model, quality in sample:
        print(f"  {request_id[-18:]} -> {model} (quality {quality:.3f})")


if __name__ == "__main__":
    main()
