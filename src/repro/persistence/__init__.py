"""Durable state: snapshots, the write-ahead journal, and warm restarts.

A process restart used to lose the entire example cache, index layout, and
learned service state — a non-starter for the ROADMAP's production north
star.  This package makes the service durable with the classic database
recipe, specialized to IC-Cache's determinism contract:

* :mod:`repro.persistence.snapshot` — a versioned full-state snapshot:
  examples, index layout (including the add/remove history the K-Means
  retrain depends on), learned posteriors, and every RNG stream position,
  so a restored service serves *bit-identically* to one that never stopped.
* :mod:`repro.persistence.wal` — a write-ahead journal of cache mutations
  (add / overwrite / remove / replay-rewrite / decay) between snapshots,
  one CRC-checked binary frame per record, with replay-on-recovery and
  size-triggered compaction into a fresh snapshot (:class:`Checkpointer`).
* :mod:`repro.persistence.cli` — ``python -m repro.persistence.cli
  snapshot|restore|inspect|wal`` for operators.

``docs/PERSISTENCE.md`` documents the format, the record vocabulary, and
the recovery semantics; ``tests/test_persistence_recovery.py`` pins the
headline guarantee (crash mid-workload, rebuild from snapshot+WAL, finish
the stream bit-identically).
"""

from repro.persistence.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_snapshot,
    restore_service,
    write_snapshot,
)
from repro.persistence.wal import (
    Checkpointer,
    WriteAheadLog,
    apply_wal,
    filter_stale_records,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "write_snapshot",
    "load_snapshot",
    "restore_service",
    "WriteAheadLog",
    "Checkpointer",
    "apply_wal",
    "filter_stale_records",
]
