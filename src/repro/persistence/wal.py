"""Write-ahead journal for cache mutations between snapshots.

The snapshot (:mod:`repro.persistence.snapshot`) is a full-state image; the
WAL covers the tail since the last one.  It journals the cache *lifecycle*
(the section-4.3 surface): ``add`` / ``overwrite`` / ``remove`` mutations,
``replay_rewrite`` refinements, ``decay`` passes, ``clock`` marks and
``manager_counters`` updates from the manager, and ``retrain`` markers when
a search triggered a lazy K-Means (re)train.  Records are physical redo
records — they carry the resulting state, not the inputs — so recovery
replays them deterministically without re-running any stochastic
computation.

Recovery contract (pinned by ``tests/test_persistence_recovery.py``): a
service rebuilt from snapshot + WAL is bit-identical to the original at the
moment of the crash **when the WAL window contains only cache-lifecycle
operations** — maintenance ticks (decay / eviction / replay) and direct
cache ingestion (``cache.add`` / ``overwrite`` / ``remove``).  Operations
that *generate responses* move state the cache journal cannot see: served
requests touch router posteriors, proxy weights, and RNG positions, and
response-generating admission (``seed_cache`` / ``manager.admit``) advances
the source model's decode streams (its counters and minted ids ARE
journaled via ``manager_counters``, but the decode positions are not) — so
those windows must be bounded by checkpoints, which is what
:class:`Checkpointer`'s size-triggered compaction and the runtime's
:class:`~repro.runtime.sources.CheckpointTickSource` are for.  In-flight
requests at the crash are lost (standard serving-system semantics).

Layout on disk: one JSON object per line (``wal.jsonl``), each with a
monotonic ``seq``, the record ``kind``, and its data; arrays use the same
bit-exact base64 encoding as snapshots.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from repro.persistence.snapshot import (
    _decode,
    _encode,
    ema_record,
    example_from_record,
    example_record,
    load_snapshot,
    restore_ema,
    restore_service,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> persistence)
    from repro.core.config import ICCacheConfig
    from repro.core.service import ICCacheService


class WriteAheadLog:
    """Append-only journal of cache mutation records.

    Low-level: callers attach its :meth:`record` as ``cache.journal`` (or
    go through :class:`Checkpointer`, which also owns compaction).  One
    append handle stays open across records; each append is flushed to
    the OS before returning, so by the time a mutation's effects can be
    observed, its record survives a *process* crash (power-loss
    durability would additionally need an fsync per record — out of
    scope for the simulation substrate, and noted in
    ``docs/PERSISTENCE.md``).

    ``epoch`` stamps every record with the journal generation it belongs
    to (bumped by :meth:`reset`); recovery uses it to ignore records a
    crash stranded from before the newest snapshot.
    """

    def __init__(self, path: str | Path, epoch: int = 0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.epoch = int(epoch)
        self._fh = None   # persistent append handle, opened lazily
        # Resuming over an existing journal only needs the record *count*
        # for seq continuity; full decode (and validation) is deferred to
        # :meth:`read`, so reopening a large journal is cheap.  A file not
        # ending in a newline carries a torn tail from a mid-append crash
        # (record payloads never contain raw newlines): drop the fragment
        # now, or the next append would concatenate onto it and corrupt
        # an otherwise-recoverable record.
        self._seq = 0
        self._bytes = 0
        if self.path.exists():
            raw = self.path.read_bytes()
            if raw and not raw.endswith(b"\n"):
                raw = raw[:raw.rfind(b"\n") + 1] if b"\n" in raw else b""
                self.path.write_bytes(raw)
            self._seq = raw.count(b"\n")
            self._bytes = len(raw)

    def __len__(self) -> int:
        return self._seq

    @property
    def size_bytes(self) -> int:
        """Current journal size (drives size-triggered compaction).

        A running in-process counter — this log owns the only write
        handle, so counting bytes as they are written avoids a ``stat``
        syscall per journaled mutation on the admission/eviction path.
        """
        return self._bytes

    def record(self, kind: str, payload) -> None:
        """Serialize and append one mutation record (the journal callback)."""
        if kind in ("add", "overwrite"):
            data = {"example": example_record(payload)}
        elif kind == "remove":
            data = {"example_id": payload}
        elif kind == "replay_rewrite":
            # Only what replay refines and :func:`_apply_replay_rewrite`
            # reads — not the request, latent and embedding an ``add``
            # already journaled.
            example = payload["example"]
            data = {
                "example": {
                    "example_id": example.example_id,
                    "response_text": example.response_text,
                    "quality": example.quality,
                    "access_count": example.access_count,
                    "replay_count": example.replay_count,
                    "gain_ema": ema_record(example.gain_ema),
                    "offload_gain": ema_record(example.offload_gain),
                    "feedback_quality": ema_record(example.feedback_quality),
                },
                "teacher_decode_counts": dict(payload["teacher_decode_counts"]),
            }
        elif kind in ("retrain", "decay", "clock", "manager_counters"):
            data = dict(payload)
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        line = json.dumps(_encode({"seq": self._seq, "epoch": self.epoch,
                                   "kind": kind, "data": data}),
                          separators=(",", ":"))
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        self._seq += 1
        self._bytes += len(line) + 1   # json.dumps escapes to pure ASCII

    def reset(self, epoch: int | None = None) -> None:
        """Truncate the journal (called right after a fresh snapshot).

        ``epoch`` advances the generation stamp for subsequent records so
        they pair with the snapshot that triggered the truncation.
        """
        self.close()
        self.path.write_text("", encoding="utf-8")
        self._seq = 0
        self._bytes = 0
        if epoch is not None:
            self.epoch = int(epoch)

    def close(self) -> None:
        """Release the append handle (reopened lazily on the next record)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """Decode every record in seq order; validates contiguity.

        Standard torn-tail semantics: a final line that fails to parse is
        the fragment of an append interrupted by a crash and is dropped
        (the snapshot plus the valid prefix recover correctly); an
        unparsable line anywhere *else* is real corruption and raises.
        """
        path = Path(path)
        if not path.exists():
            return []
        lines = [line for line in
                 path.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
        records = []
        for position, line in enumerate(lines):
            try:
                records.append(_decode(json.loads(line)))
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    break   # torn tail: mid-append crash, drop it
                raise ValueError(
                    f"{path}: unparsable record at line {position} "
                    "(journal corrupt)"
                ) from None
        for position, record in enumerate(records):
            if record["seq"] != position:
                raise ValueError(
                    f"{path}: record {position} has seq {record['seq']} "
                    "(journal corrupt or truncated mid-record)"
                )
        return records


def filter_stale_records(records: list[dict], snapshot: dict,
                         source: str = "WAL") -> list[dict]:
    """Drop records an earlier epoch already folded into ``snapshot``.

    Records whose epoch predates the snapshot's ``wal_epoch`` were
    stranded by a crash between snapshot write and journal truncation —
    their effects are inside the snapshot, and replaying them would
    double-apply.  Records from a *future* epoch mean mismatched files
    and raise.  Also warns when the surviving tail contains
    response-generating admissions (``manager_counters`` advancing past
    the snapshot's), because such windows are outside the bit-identity
    contract (see ``docs/PERSISTENCE.md``).
    """
    snap_epoch = int(snapshot.get("wal_epoch", 0))
    live = [r for r in records if int(r.get("epoch", 0)) == snap_epoch]
    stale = [r for r in records if int(r.get("epoch", 0)) > snap_epoch]
    if stale:
        raise ValueError(
            f"{source}: records from epoch {stale[0]['epoch']} postdate "
            f"snapshot epoch {snap_epoch} (mismatched snapshot/journal "
            "files)"
        )
    snap_admits = (int(snapshot["manager"]["admitted"])
                   + int(snapshot["manager"]["rejected_duplicates"]))
    for record in live:
        if record["kind"] != "manager_counters":
            continue
        tail_admits = (int(record["data"]["admitted"])
                       + int(record["data"]["rejected_duplicates"]))
        if tail_admits > snap_admits:
            warnings.warn(
                f"{source}: journal tail contains response-generating "
                "admissions; the recovered service's model decode "
                "positions lag the crashed one's, so recovery is outside "
                "the bit-identity contract (docs/PERSISTENCE.md) — "
                "bound admission windows with checkpoints",
                stacklevel=2,
            )
            break
    return live


def apply_wal(service: "ICCacheService", records: list[dict]) -> int:
    """Replay journal records onto a freshly restored service.

    Physical redo in seq order.  The cache must have no journal attached
    (recovery must not re-journal itself); returns the number of records
    applied.
    """
    cache = service.cache
    if cache.journal is not None:
        raise RuntimeError("detach the cache journal before WAL replay")
    for record in records:
        kind = record["kind"]
        data = record["data"]
        if kind == "add":
            cache.add(example_from_record(data["example"]))
        elif kind == "overwrite":
            cache.overwrite(example_from_record(data["example"]))
        elif kind == "remove":
            cache.remove(data["example_id"])
        elif kind == "retrain":
            _apply_retrain(cache, data)
        elif kind == "decay":
            _apply_decay(service.manager, int(data["periods"]))
        elif kind == "clock":
            service.clock.advance_to(float(data["now"]))
        elif kind == "manager_counters":
            manager = service.manager
            manager._next_id = int(data["next_id"])
            manager.admitted = int(data["admitted"])
            manager.rejected_duplicates = int(data["rejected_duplicates"])
            manager.evictions = int(data["evictions"])
        elif kind == "replay_rewrite":
            _apply_replay_rewrite(service, data)
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")
    return len(records)


def _apply_retrain(cache, data: dict) -> None:
    """Re-fire the lazy K-Means (re)trains the original search triggered.

    The flat storage's row order at this point in the replay matches the
    original run's (adds/removes were replayed in order), so a forced
    retrain reproduces identical centroids and blocks.
    """
    index = cache._index
    per_shard = data.get("per_shard")
    if per_shard is not None:
        for shard, target in zip(index._shards, per_shard):
            while shard.trainings < int(target):
                if not shard.retrain():
                    raise RuntimeError(
                        "WAL retrain replay diverged: shard refused to train"
                    )
    else:
        while index.trainings < int(data["trainings"]):
            if not index.retrain():
                raise RuntimeError(
                    "WAL retrain replay diverged: index refused to train"
                )


def _apply_decay(manager, periods: int) -> None:
    """Redo one decay pass: same factor, same periods, same clock math.

    Vectorized over the cache's columnar table when one is present (the
    same ``values *= factor ** periods`` the live pass runs, so replay
    stays bit-identical); the per-object loop remains for table-less
    cache stand-ins.
    """
    table = getattr(manager.cache, "table", None)
    if table is not None:
        table.decay_gains(manager.config.decay_factor, periods)
    else:
        for example in manager.cache:
            example.offload_gain.decay(manager.config.decay_factor, periods)
            example.gain_ema.decay(manager.config.decay_factor, periods)
    manager._last_decay += periods * manager.config.decay_period_s


def _apply_replay_rewrite(service: "ICCacheService", data: dict) -> None:
    """Redo one replay refinement: overwrite the example's refined fields
    in place (the embedding is untouched — replay never re-embeds) and
    advance the teacher's decode position for that request."""
    record = data["example"]
    example = service.cache.get(record["example_id"])
    example.response_text = record["response_text"]
    example.quality = float(record["quality"])
    example.replay_count = int(record["replay_count"])
    example.access_count = int(record["access_count"])
    restore_ema(example.gain_ema, record["gain_ema"])
    restore_ema(example.offload_gain, record["offload_gain"])
    restore_ema(example.feedback_quality, record["feedback_quality"])
    # Keep the byte counter exact (rewrites change plaintext size).
    service.cache.refresh_total_bytes([example])
    teacher = service.manager.replay_engine.teacher \
        if service.manager.replay_engine is not None else None
    if teacher is not None:
        for request_id, count in data["teacher_decode_counts"].items():
            teacher._decode_counts[request_id] = int(count)


class Checkpointer:
    """Snapshot + WAL under one directory, with size-triggered compaction.

    ``directory/snapshot.json`` is the latest full snapshot;
    ``directory/wal.jsonl`` journals cache mutations since.  When the WAL
    grows past ``compact_after_bytes``, the next record triggers a fresh
    snapshot and truncates the journal — compaction is just "checkpoint
    now".  :meth:`recover` inverts the whole arrangement.
    """

    SNAPSHOT_NAME = "snapshot.json"
    WAL_NAME = "wal.jsonl"

    def __init__(self, service: "ICCacheService", directory: str | Path,
                 compact_after_bytes: int | None = None,
                 attach: bool = True) -> None:
        self.service = service
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.compact_after_bytes = compact_after_bytes
        # Pair the journal with the existing snapshot's generation, so a
        # resumed Checkpointer keeps stamping records the next recovery
        # will accept.  Raw json.loads on purpose: one int is needed, not
        # the full array decode load_snapshot performs.
        self._epoch = 0
        if self.snapshot_path.exists():
            header = json.loads(
                self.snapshot_path.read_text(encoding="utf-8")
            )
            self._epoch = int(header.get("wal_epoch", 0))
        self.wal = WriteAheadLog(self.wal_path, epoch=self._epoch)
        self.checkpoints = 0
        self.compactions = 0
        # Bound once: ``self._record`` would mint a fresh bound-method
        # object per attribute access, so identity checks against the
        # attached journal need a stable callable.
        self._journal_callback = self._record
        self._checkpointing = False
        if attach:
            self.attach()

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / self.WAL_NAME

    def attach(self) -> None:
        """Start journaling the service's cache mutations."""
        self.service.cache.journal = self._journal_callback

    def detach(self) -> None:
        self.service.cache.journal = None
        self.wal.close()

    def checkpoint(self) -> Path:
        """Write a fresh snapshot and truncate the WAL.

        This is both the periodic checkpoint (the runtime's
        ``CheckpointTickSource`` calls it on a cadence) and the compaction
        primitive.  Ordering matters twice over: the snapshot is written
        (atomically) with a *bumped* WAL epoch before the journal is
        truncated, so a crash in between leaves old-epoch records that
        recovery recognizes as already subsumed; and the journal is
        re-armed *before* the ``on_checkpoint`` middleware hook fires, so
        a hook that mutates the cache journals into the fresh WAL — its
        mutation is recoverable even though it post-dates the snapshot.
        Re-attaching also resets the retrain-detection baseline to the
        just-snapshotted training count.
        """
        from repro.persistence.snapshot import write_snapshot

        self._checkpointing = True
        try:
            new_epoch = self._epoch + 1
            path = write_snapshot(self.service, self.snapshot_path,
                                  wal_epoch=new_epoch)
            self._epoch = new_epoch
            self.wal.reset(epoch=new_epoch)
            if self.service.cache.journal is self._journal_callback:
                self.attach()   # reset the retrain-detection baseline
            self.checkpoints += 1
            self.service.pipeline.run_checkpoint(self.service)
        finally:
            self._checkpointing = False
        return path

    def _record(self, kind: str, payload) -> None:
        self.wal.record(kind, payload)
        if (self.compact_after_bytes is not None
                and not self._checkpointing
                and self.wal.size_bytes > self.compact_after_bytes):
            # The triggering record's effect is already part of live state,
            # so the fresh snapshot subsumes it; dropping the journal loses
            # nothing.  ``_checkpointing`` guards against re-entry when an
            # on_checkpoint hook itself mutates the cache.
            self.checkpoint()
            self.compactions += 1

    @classmethod
    def recover(cls, directory: str | Path,
                config: "ICCacheConfig | None" = None,
                models: dict | None = None,
                shard_fn=None) -> "ICCacheService":
        """Rebuild a service from ``directory``: snapshot, then WAL replay.

        Returns the recovered service with no journal attached.  To resume
        durable operation, wrap it in a new :class:`Checkpointer` over the
        same directory **and call** :meth:`checkpoint` — that compacts the
        just-replayed tail into a fresh snapshot, so the next recovery
        does not replay it again (construction alone never snapshots).
        """
        directory = Path(directory)
        snapshot = load_snapshot(directory / cls.SNAPSHOT_NAME)
        service = restore_service(snapshot, config=config, models=models,
                                  shard_fn=shard_fn)
        records = WriteAheadLog.read(directory / cls.WAL_NAME)
        apply_wal(service, filter_stale_records(records, snapshot,
                                                source=str(directory)))
        return service
