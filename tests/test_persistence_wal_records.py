"""What a ``replay_rewrite`` journal record carries.

The record holds the fields replay refines and its redo reads — not the
request, latent and embedding the example's ``add`` already journaled; a
``replay_rewrite`` frame has no room for more.
"""

from __future__ import annotations

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.wal import Checkpointer, WriteAheadLog
from repro.workload.datasets import SyntheticDataset
from tests.wal_reference import example_record

SEED = 11


def _journaled_replay(directory):
    """A checkpointed service, 40 served requests, one replay pass; returns
    the journal's records and, by seq, each rewrite's whole-example form."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:80])
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    for request in dataset.online_requests(40):
        service.serve(request, load=0.2)
    checkpointer.checkpoint()       # bound the serving window

    whole: dict[int, dict] = {}
    record = checkpointer.wal.record

    def tee(kind, payload):
        if kind == "replay_rewrite":
            whole[len(checkpointer.wal)] = {
                "example": example_record(payload["example"]),
                "teacher_decode_counts":
                    dict(payload["teacher_decode_counts"]),
            }
        record(kind, payload)

    service.cache.journal = tee
    service.clock.advance(1800.0)
    assert service.run_maintenance(replay=True)["replayed"] > 0
    checkpointer.detach()
    return WriteAheadLog.read(checkpointer.wal_path), whole


def test_replay_rewrite_carries_only_the_refined_fields(tmp_path):
    records, whole = _journaled_replay(tmp_path / "ckpt")
    rewrites = [r for r in records if r["kind"] == "replay_rewrite"]
    assert len(rewrites) == len(whole) > 0
    for record in rewrites:
        assert set(record["data"]) == {"example", "teacher_decode_counts"}
        assert set(record["data"]["example"]) == {
            "example_id", "response_text", "quality", "access_count",
            "replay_count", "gain_ema", "offload_gain", "feedback_quality"}
        # the same values the whole-example form holds for those fields
        fat = whole[record["seq"]]["example"]
        assert all(record["data"]["example"][key] == fat[key]
                   for key in record["data"]["example"])
