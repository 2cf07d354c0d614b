"""Crash-recovery determinism: snapshot + WAL == never crashed.

The headline scenario of the persistence subsystem (``docs/PERSISTENCE.md``
documents the contract): run a seeded workload, checkpoint mid-stream,
keep mutating the cache through a journaled lifecycle window (decay,
replay rewrites, evictions, ingestion, a lazy retrain), *kill* the
service, rebuild it from snapshot + WAL, finish the stream — and every
serve decision, response quality, and statistic matches the uninterrupted
run bit for bit.

CI runs this file as the persistence smoke job (small N on purpose).
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.example import Example
from repro.core.service import ICCacheService
from repro.persistence.snapshot import load_snapshot, snapshot_example_count
from repro.persistence.wal import (
    MAGIC,
    Checkpointer,
    WriteAheadLog,
    read_journal,
)
from repro.pipeline.protocols import ServeMiddleware
from repro.vectorstore import ivf
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request

SEED = 11
BANK = 120
N_BEFORE = 20   # requests served before the checkpoint
N_AFTER = 20    # requests served after recovery
# Binds once online admissions grow the pool (~42.6 KB at the checkpoint
# for this seed), so the retention knapsack runs for real in both chunks;
# config is deployment state, so it must be identical from construction —
# a mid-run config mutation is invisible to the cache journal by design.
CAPACITY_BYTES = 40_000


def _build() -> tuple[ICCacheService, SyntheticDataset]:
    service = ICCacheService(ICCacheConfig(
        seed=SEED,
        manager=ManagerConfig(sanitize=False,
                              capacity_bytes=CAPACITY_BYTES),
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _snap(outcomes) -> list[tuple]:
    return [(o.choice.model_name, o.result.quality, o.result.n_examples,
             o.bypassed) for o in outcomes]


def _ingest(service: ICCacheService) -> None:
    """Deterministic direct cache ops for the journaled window."""
    rng = np.random.default_rng(7)
    task = service.cache.examples()[0].request.task
    for i in range(3):
        request = Request(
            request_id=f"ingest-req-{i}", dataset="ms_marco", task=task,
            text=f"ingested request {i} with some plaintext body",
            latent=rng.normal(size=service.embedder.dim),
            topic_id=0, difficulty=0.5, prompt_tokens=12,
            target_output_tokens=40,
        )
        service.cache.add(Example(
            example_id=f"ingest-{i}", request=request,
            # Big on purpose: direct cache.add bypasses admission-time
            # capacity enforcement, so these push the pool over budget
            # and guarantee the maintenance pass evicts (the scenario
            # must exercise journaled evictions).
            response_text=f"ingested response {i} " + "payload " * 300,
            embedding=service.embedder.embed(request.text, request.latent),
            quality=0.8, source_model="manual", source_cost=1.0,
        ))
    service.cache.remove("ingest-0")


def _lifecycle_window(service: ICCacheService) -> dict:
    """The mutations between checkpoint and crash, identical in both runs.

    Covers every WAL record kind: ingestion (add/remove), a lowered
    retrain threshold plus a search (retrain), an eviction-forcing
    capacity (remove), two elapsed decay periods (decay + clock), and a
    replay pass (replay_rewrite).
    """
    _ingest(service)
    # Lazy K-Means retrain inside a search: drop the cadence so the
    # window's churn is enough, search once, then restore the cadence, so
    # both runs carry the same value into the post-crash chunk.
    with mock.patch.object(ivf, "RETRAIN_THRESHOLD", 0.01):
        service.cache.nearest_similarity(
            service.cache.examples()[0].embedding
        )
    service.clock.advance(2 * 3600.0)
    return service.run_maintenance(replay=True)


class _CheckpointObserver(ServeMiddleware):
    def __init__(self) -> None:
        self.checkpoints = 0

    def on_checkpoint(self, service) -> None:
        self.checkpoints += 1


@pytest.fixture(scope="module")
def uninterrupted() -> dict:
    service, dataset = _build()
    requests = dataset.online_requests(N_BEFORE + N_AFTER)
    before = _snap([service.serve(r, load=0.2) for r in requests[:N_BEFORE]])
    maintenance = _lifecycle_window(service)
    after = _snap([service.serve(r, load=0.2) for r in requests[N_BEFORE:]])
    return {
        "before": before,
        "maintenance": maintenance,
        "after": after,
        "stats": service.stats,
        "clock": service.clock.now,
        "examples": sorted(ex.example_id for ex in service.cache),
        "trainings": service.cache._index.trainings,
        "manager_evictions": service.manager.evictions,
    }


class TestCrashRecoveryDeterminism:
    def test_recovered_service_finishes_stream_bit_identically(
            self, uninterrupted, tmp_path):
        service, dataset = _build()
        requests = dataset.online_requests(N_BEFORE + N_AFTER)
        before = _snap(
            [service.serve(r, load=0.2) for r in requests[:N_BEFORE]]
        )
        assert before == uninterrupted["before"]

        observer = _CheckpointObserver()
        service.pipeline.middlewares.append(observer)
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        assert observer.checkpoints == 1

        maintenance = _lifecycle_window(service)
        assert maintenance == uninterrupted["maintenance"]
        assert maintenance["evicted"] > 0, "window must exercise eviction"
        assert maintenance["replayed"] > 0, "window must exercise replay"

        # The journal must hold every record kind the window promises.
        kinds = {record["kind"]
                 for record in WriteAheadLog.read(checkpointer.wal_path)}
        assert {"add", "remove", "retrain", "decay", "clock",
                "replay_rewrite", "manager_counters"} <= kinds

        del service  # crash: the process state is gone

        recovered = Checkpointer.recover(tmp_path / "ckpt")
        after = _snap(
            [recovered.serve(r, load=0.2) for r in requests[N_BEFORE:]]
        )
        assert after == uninterrupted["after"]
        assert recovered.stats == uninterrupted["stats"]
        assert recovered.clock.now == uninterrupted["clock"]
        assert sorted(ex.example_id for ex in recovered.cache) == \
            uninterrupted["examples"]
        assert recovered.cache._index.trainings == uninterrupted["trainings"]
        assert recovered.manager.evictions == \
            uninterrupted["manager_evictions"]

    def test_admission_window_restores_manager_counters(self, tmp_path):
        """Id minting and manager tallies survive a WAL recovery.

        Admissions in the window (here via ``seed_cache``) mint example
        ids from the manager's counter; without ``manager_counters``
        records a recovered service would re-mint already-used ids.
        (Decode positions of the window's generations are NOT journaled —
        the documented reason response-generating windows should be
        checkpoint-bounded.)
        """
        service, dataset = _build()
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        extra_bank = dataset.example_bank_requests()[BANK:BANK + 5]
        admitted = service.seed_cache(extra_bank)
        assert admitted > 0
        live = (service.manager._next_id, service.manager.admitted,
                service.manager.rejected_duplicates,
                service.manager.evictions)

        # Such a window is recoverable but outside the bit-identity
        # contract (decode positions lag), and recovery warns about it.
        with pytest.warns(UserWarning, match="bit-identity"):
            recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert (recovered.manager._next_id, recovered.manager.admitted,
                recovered.manager.rejected_duplicates,
                recovered.manager.evictions) == live
        assert sorted(ex.example_id for ex in recovered.cache) == \
            sorted(ex.example_id for ex in service.cache)

    def test_on_checkpoint_hook_mutations_land_in_fresh_wal(self, tmp_path):
        """A hook that mutates the cache during checkpoint stays durable.

        The snapshot is written before the hook runs, so the mutation
        must be journaled into the *fresh* WAL (truncating after the hook
        would silently lose it)."""
        service, _ = _build()
        victim = service.cache.examples()[0].example_id

        class _PruneOnCheckpoint(ServeMiddleware):
            def __init__(self):
                self.done = False

            def on_checkpoint(self, svc) -> None:
                if not self.done:
                    self.done = True
                    svc.cache.remove(victim)

        service.pipeline.middlewares.append(_PruneOnCheckpoint())
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        records = WriteAheadLog.read(checkpointer.wal_path)
        assert [r["kind"] for r in records] == ["remove"]
        assert records[0]["data"]["example_id"] == victim
        recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert victim not in recovered.cache
        assert len(recovered.cache) == len(service.cache)

    def test_recovery_without_wal_tail_matches_checkpoint(self, tmp_path):
        service, dataset = _build()
        requests = dataset.online_requests(N_BEFORE)
        for request in requests:
            service.serve(request, load=0.2)
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert recovered.stats == service.stats
        assert len(recovered.cache) == len(service.cache)


class TestCompaction:
    def test_size_triggered_compaction_snapshots_and_truncates(
            self, tmp_path):
        service, _ = _build()
        checkpointer = Checkpointer(service, tmp_path / "ckpt",
                                    compact_after_bytes=20_000)
        checkpointer.checkpoint()
        # Journal adds until the size trigger fires at least once.
        rng = np.random.default_rng(3)
        task = service.cache.examples()[0].request.task
        i = 0
        while checkpointer.compactions == 0:
            assert i < 200, "compaction never triggered"
            request = Request(
                request_id=f"bulk-{i}", dataset="ms_marco", task=task,
                text=f"bulk ingested request {i} " + "x" * 64,
                latent=rng.normal(size=service.embedder.dim),
                topic_id=0, difficulty=0.5, prompt_tokens=24,
                target_output_tokens=40,
            )
            service.cache.add(Example(
                example_id=f"bulk-{i}", request=request,
                response_text="bulk response " + "y" * 64,
                embedding=service.embedder.embed(request.text,
                                                 request.latent),
                quality=0.7, source_model="manual", source_cost=1.0,
            ))
            i += 1
        # Compaction = fresh snapshot + truncated journal, nothing lost.
        assert checkpointer.wal.size_bytes == 0
        snapshot = load_snapshot(checkpointer.snapshot_path)
        assert snapshot_example_count(snapshot["cache"]) == len(service.cache)
        recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert sorted(ex.example_id for ex in recovered.cache) == \
            sorted(ex.example_id for ex in service.cache)

    def test_size_triggered_snapshot_sits_on_an_operation_boundary(
            self, tmp_path, monkeypatch):
        """Compaction is tested when an operation's group closes, not after
        each record.  Before, two of three size-triggered snapshots of a
        ``lifecycle_churn`` run were taken *inside* an admission — after
        the ``add``, before the eviction it forces and before ``admitted``
        caught up with ``_next_id`` (seen: cache 450 725 bytes of 450 589,
        ``admitted`` 3043 / ``next_id`` 3044).  Every snapshot ``serve`` or
        ``seed_cache`` triggers must hold a cache within budget and
        counters that agree with each other, and the service recovered
        from it *alone* must pass ``bench_e2e``'s ``cache_invariants``.
        (Maintenance is left out on purpose: a replay pass rebinds response
        texts, so a snapshot it triggers may sit over the budget until the
        next ``enforce_capacity`` settles it.)"""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench_e2e"))
        from workloads import cache_invariants

        service = ICCacheService(ICCacheConfig(
            seed=SEED, manager=ManagerConfig(sanitize=True)))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
        bank = dataset.example_bank_requests()
        service.seed_cache(bank[:BANK])
        capacity = service.cache.total_bytes
        service.manager.config.capacity_bytes = capacity
        directory = tmp_path / "ckpt"
        # ~3 admissions' frames: most records that cross it are mid-group
        checkpointer = Checkpointer(service, directory,
                                    compact_after_bytes=6_000)
        checkpointer.checkpoint()
        seen = []

        class Inspect(ServeMiddleware):
            def on_checkpoint(self, live) -> None:
                # the journal was just truncated: this is the snapshot alone
                recovered = Checkpointer.recover(directory,
                                                 config=live.config)
                manager = recovered.manager
                seen.append((recovered.cache.total_bytes, manager._next_id,
                             manager.admitted, manager.evictions,
                             len(recovered.cache),
                             cache_invariants(recovered)))

        service.pipeline.middlewares.append(Inspect())
        for request in dataset.online_requests(60):
            service.serve(request, load=0.2)
        service.seed_cache(bank[BANK:BANK + 20])
        checkpointer.detach()
        assert checkpointer.compactions == len(seen) >= 10
        for held, next_id, admitted, evictions, size, problems in seen:
            assert held <= capacity
            assert next_id == admitted and size == admitted - evictions
            assert problems == []

    def test_stale_epoch_records_skipped_not_double_applied(self, tmp_path):
        """Crash between snapshot write and WAL truncation is safe.

        Simulated by re-writing the pre-truncation journal back after a
        checkpoint: its records carry the old epoch, the snapshot the new
        one, so recovery must ignore them (their effects are already in
        the snapshot) instead of double-applying adds/removes.
        """
        service, _ = _build()
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        _ingest(service)  # journaled: 3 adds + 1 remove at epoch 1
        stranded = checkpointer.wal_path.read_bytes()
        checkpointer.checkpoint()  # snapshot now at epoch 2, WAL empty
        # The crash: journal truncation "didn't happen".
        checkpointer.detach()
        checkpointer.wal_path.write_bytes(stranded)

        recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert sorted(ex.example_id for ex in recovered.cache) == \
            sorted(ex.example_id for ex in service.cache)
        assert recovered.cache._index._churn == service.cache._index._churn

    def test_snapshot_write_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-snapshot-write leaves the previous snapshot intact."""
        import os as _os

        service, _ = _build()
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        before = checkpointer.snapshot_path.read_text(encoding="utf-8")

        def boom(src, dst):
            raise OSError("simulated crash at replace time")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(OSError, match="simulated"):
            checkpointer.checkpoint()
        monkeypatch.undo()
        assert checkpointer.snapshot_path.read_text(
            encoding="utf-8") == before
        recovered = Checkpointer.recover(tmp_path / "ckpt")
        assert len(recovered.cache) == len(service.cache)

    def test_corrupt_wal_rejected(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.record("clock", {"now": 1.0})
        wal.record("clock", {"now": 2.0})
        wal.close()
        raw = path.read_bytes()
        first = read_journal(path)[1][0]
        path.write_bytes(MAGIC + raw[len(MAGIC) + first:])  # drop record 0
        with pytest.raises(ValueError, match="seq"):
            WriteAheadLog.read(path)

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        """A mid-append crash leaves a partial final frame: recovery keeps
        the valid prefix, and a resumed journal does not append behind the
        fragment."""
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.record("clock", {"now": 1.0})
        wal.record("clock", {"now": 2.0})
        whole = path.read_bytes()
        wal.record("clock", {"now": 3.0})
        wal.close()
        path.write_bytes(path.read_bytes()[:len(whole) + 15])  # cut mid-head
        records = WriteAheadLog.read(path)
        assert [r["data"]["now"] for r in records] == [1.0, 2.0]
        # Resuming truncates the fragment and continues at the right seq.
        resumed = WriteAheadLog(path)
        assert len(resumed) == 2
        resumed.record("clock", {"now": 3.0})
        resumed.close()
        records = WriteAheadLog.read(path)
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_admission_tail_recovery_warns(self, tmp_path):
        """Response-generating admissions in the WAL window are legal but
        outside the bit-identity contract — recovery says so."""
        service, dataset = _build()
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        service.seed_cache(dataset.example_bank_requests()[BANK:BANK + 3])
        with pytest.warns(UserWarning, match="bit-identity"):
            Checkpointer.recover(tmp_path / "ckpt")


class TestCheckpointTickSource:
    def test_live_checkpoints_inside_cluster_scenario(self, tmp_path):
        from repro.runtime import CheckpointTickSource, TraceArrivalSource
        from repro.serving.cluster import (
            ClusterConfig,
            ClusterSimulator,
            ModelDeployment,
        )

        service, dataset = _build()
        observer = _CheckpointObserver()
        service.pipeline.middlewares.append(observer)
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        requests = dataset.online_requests(30)
        arrivals = [(0.3 * i, r) for i, r in enumerate(requests)]
        sim = ClusterSimulator(ClusterConfig(deployments=[
            ModelDeployment(service.models[service.small_name], replicas=4),
            ModelDeployment(service.models[service.large_name], replicas=1),
        ]))
        source = CheckpointTickSource(checkpointer, interval_s=3.0,
                                      horizon_s=9.0)
        sim.run_sources(
            [TraceArrivalSource(arrivals, service.pipeline.route_batch),
             source],
            on_complete=service.pipeline.on_complete,
        )
        assert len(source.history) == 3          # bounded tick train
        assert observer.checkpoints == 3          # on_checkpoint hook fired
        assert [h["time_s"] for h in source.history] == [3.0, 6.0, 9.0]
        assert source.history[-1]["served"] <= service.stats.served
        # The last live checkpoint is a valid, restorable snapshot.
        recovered = ICCacheService.restore(checkpointer.snapshot_path)
        assert recovered.stats.served == source.history[-1]["served"]
        assert recovered.clock.now >= 9.0
