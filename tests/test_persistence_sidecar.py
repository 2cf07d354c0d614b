"""The mmap sidecar snapshot path.

Companion to ``test_persistence_recovery.py``: that file pins crash
recovery through snapshot + WAL; this one pins the *encoding* overhaul —
array bytes in a content-hash-named raw sidecar next to the JSON
manifest, restored as copy-on-write ``np.memmap`` views.  Covered here:

* warm-restart determinism through the sidecar, mono and sharded — the
  restored service finishes a request stream bit-identically;
* one format: a manifest of any version but the one ``write_snapshot``
  writes is refused, by number;
* crash-safety bookkeeping: content-hash naming, stale-sidecar cleanup,
  hard errors on truncated or missing sidecar files, and a pool that cannot
  be written leaving the previous image untouched;
* copy-on-write isolation: serving a restored service never writes back
  into the snapshot files.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.snapshot import SNAPSHOT_VERSION, load_snapshot
from repro.workload.datasets import SyntheticDataset

SEED = 13
BANK = 100
N_BEFORE = 12
N_AFTER = 12


def _build(shards: int = 1):
    service = ICCacheService(ICCacheConfig(
        seed=SEED, cache_shards=shards,
        manager=ManagerConfig(sanitize=False),
    ))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service, dataset


def _snap(outcomes):
    return [(o.choice.model_name, o.result.quality, o.result.n_examples)
            for o in outcomes]


def _bin_files(path):
    return sorted(path.parent.glob(path.name + ".*.bin"))


class TestSidecarFormat:
    def test_manifest_references_content_hash_sidecar(self, tmp_path):
        service, _ = _build()
        path = tmp_path / "snap.json"
        service.save(path)

        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == SNAPSHOT_VERSION == 5
        bins = _bin_files(path)
        assert len(bins) == 1
        assert doc["sidecar"] == bins[0].name
        # Content-hash naming: <manifest>.<16-hex-digest>.bin.
        digest = bins[0].name[len(path.name) + 1:-len(".bin")]
        assert len(digest) == 16 and all(c in "0123456789abcdef"
                                         for c in digest)
        # Arrays are externalized, not inlined.
        text = path.read_text(encoding="utf-8")
        assert "__extarray__" in text
        assert "__ndarray__" not in text

    def test_stale_sidecars_removed_on_rewrite(self, tmp_path):
        service, dataset = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        first = _bin_files(path)[0].name
        for request in dataset.online_requests(3):
            service.serve(request, load=0.2)
        service.save(path)
        bins = _bin_files(path)
        assert len(bins) == 1, "previous image's sidecar must be cleaned up"
        assert bins[0].name != first
        assert json.loads(
            path.read_text(encoding="utf-8"))["sidecar"] == bins[0].name

    def test_truncated_sidecar_is_a_hard_error(self, tmp_path):
        service, _ = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        bin_path = _bin_files(path)[0]
        raw = bin_path.read_bytes()
        bin_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated"):
            ICCacheService.restore(path)

    def test_missing_sidecar_is_a_hard_error(self, tmp_path):
        service, _ = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        _bin_files(path)[0].unlink()
        with pytest.raises(ValueError, match="missing"):
            ICCacheService.restore(path)

    def test_unknown_version_rejected(self, tmp_path):
        """Every version but the written one is refused — the previous one
        (v4 carried the byte ledger twice) and the three older ones this
        reader used to accept included — naming both numbers."""
        service, _ = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4, 99):
            doc["version"] = version
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ValueError) as refused:
                load_snapshot(path)
            assert f"version {version} unsupported" in str(refused.value)
            assert f"speaks version {SNAPSHOT_VERSION} " in str(refused.value)

    def test_unwritable_pool_raises_and_keeps_the_previous_image(
            self, tmp_path):
        """One example whose latent does not share the pool's shape: the
        save names it, writes nothing, and the image already at that path
        still restores and serves."""
        service, dataset = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        files_before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        victim = service.cache.examples()[7]
        latent = victim.request.latent
        victim.request.latent = np.append(latent, 0.0)
        with pytest.raises(ValueError) as refused:
            service.save(path)
        assert repr(victim.example_id) in str(refused.value)
        assert "latent" in str(refused.value)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} \
            == files_before, "a refused save must leave no .tmp or new .bin"

        victim.request.latent = latent
        tail = dataset.online_requests(N_AFTER)
        restored = ICCacheService.restore(path)
        assert _snap([restored.serve(r, load=0.2) for r in tail]) == \
            _snap([service.serve(r, load=0.2) for r in tail])


class TestWarmRestartDeterminism:
    @pytest.mark.parametrize("shards", [1, 3],
                             ids=["mono", "sharded"])
    def test_restored_service_finishes_stream_bit_identically(
            self, tmp_path, shards):
        service, dataset = _build(shards)
        requests = dataset.online_requests(N_BEFORE + N_AFTER)
        for request in requests[:N_BEFORE]:
            service.serve(request, load=0.2)
        path = tmp_path / "snap.json"
        service.save(path)
        assert _bin_files(path), "a save must produce a sidecar"

        after = _snap(
            [service.serve(r, load=0.2) for r in requests[N_BEFORE:]]
        )
        restored = ICCacheService.restore(path)
        restored_after = _snap(
            [restored.serve(r, load=0.2) for r in requests[N_BEFORE:]]
        )
        assert restored_after == after
        assert restored.stats == service.stats
        assert sorted(ex.example_id for ex in restored.cache) == \
            sorted(ex.example_id for ex in service.cache)

    def test_serving_a_restored_service_never_mutates_the_snapshot(
            self, tmp_path):
        """Copy-on-write mapping: mutations on restored arrays dirty private
        pages, so the on-disk image stays byte-identical and restorable."""
        service, dataset = _build()
        path = tmp_path / "snap.json"
        service.save(path)
        bin_path = _bin_files(path)[0]
        manifest_before = path.read_bytes()
        bin_before = bin_path.read_bytes()

        restored = ICCacheService.restore(path)
        for request in dataset.online_requests(N_BEFORE):
            restored.serve(request, load=0.2)  # admissions mutate the index
        assert path.read_bytes() == manifest_before
        assert bin_path.read_bytes() == bin_before
        again = ICCacheService.restore(path)
        assert sorted(ex.example_id for ex in again.cache) == \
            sorted(ex.example_id for ex in service.cache)
