"""Write-ahead journal for cache mutations between snapshots.

The snapshot (:mod:`repro.persistence.snapshot`) is a full-state image; the
WAL covers the tail since the last one.  It journals the cache *lifecycle*
(the section-4.3 surface): ``add`` / ``remove`` mutations,
``replay_rewrite`` refinements, ``decay`` passes and ``clock`` marks from
the manager, ``retrain`` markers when a search triggered a lazy K-Means
(re)train, and ``manager_counters``.  Records are physical redo records —
they carry the resulting state, not the inputs — so recovery replays them
deterministically without re-running any stochastic computation.

A bare callable set as ``cache.journal`` (a test lambda) gets every record
but ``manager_counters``, one by one: :class:`Checkpointer` alone writes
those, closing a group whose operation moved a counter.  A journal that
recovery can restore the manager from is a ``Checkpointer``.

Recovery contract (pinned by ``tests/test_persistence_recovery.py``): a
service rebuilt from snapshot + WAL is bit-identical to the original at the
moment of the crash **when the WAL window contains only cache-lifecycle
operations** — maintenance ticks (decay / eviction / replay) and direct
cache ingestion (``cache.add`` / ``remove``).  Operations
that *generate responses* move state the cache journal cannot see: served
requests touch router posteriors, proxy weights, and RNG positions, and
response-generating admission (``seed_cache`` / ``manager.admit``) advances
the source model's decode streams (its counters and minted ids ARE
journaled via ``manager_counters``, but the decode positions are not) — so
those windows must be bounded by checkpoints, which is what
:class:`Checkpointer`'s size-triggered compaction and the runtime's
:class:`~repro.runtime.sources.CheckpointTickSource` are for.  In-flight
requests at the crash are lost (standard serving-system semantics).

Layout on disk (``wal.bin``): :data:`MAGIC`, then one little-endian frame
per record — ``len u32 | crc32 u32 | kind u8 | epoch u32 | seq u64 | body``,
``len`` counting and the CRC covering everything after the CRC.  A body is
fixed-layout ``struct`` fields, length-prefixed UTF-8 strings and raw
float64 vectors taken straight from the example and its table row; the one
JSON left is a non-empty ``request.metadata``, which rides as the blob the
snapshot's metadata column uses.  ``docs/PERSISTENCE.md`` has the per-kind
body table and the three fault rules :func:`_scan` implements.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import warnings
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.example import Example
from repro.core.table import EMA_STREAMS
from repro.persistence.snapshot import (
    counters,
    load_snapshot,
    restore_counters,
    restore_service,
)
from repro.workload.request import (
    KINDS,
    RECORD,
    REQUEST_RECORD,
    Request,
    record_fields,
    record_getter,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> persistence)
    from repro.core.config import ICCacheConfig
    from repro.core.service import ICCacheService

#: The record vocabulary, declared once: the writer, the reader, the CLI
#: and reprolint's WAL001 (which parses this literal) all go by it.
RECORD_KINDS = ("add", "remove", "retrain", "decay", "clock",
                "manager_counters", "replay_rewrite")
#: Each kind's wire code, a frame's ``kind`` byte, in :data:`RECORD_KINDS`
#: order.  Code 2 belonged to a deleted ``overwrite`` kind and is never
#: reused, so a code-2 frame is refused as an unknown kind.
_WIRE_CODES = (1, 3, 4, 5, 6, 7, 8)

#: First bytes of every journal; a file that starts otherwise (a JSON-lines
#: journal from an older tree, or a framed one of another format version)
#: is refused by name, never parsed.  The byte before the newline is the
#: format version.
MAGIC = b"ICWAL\x00\x02\n"

_PREFIX = struct.Struct("<II")        # len, crc32 of the ``len`` bytes after it
_HEAD = struct.Struct("<BIQ")         # kind, epoch, seq
_EMAS = "2dq" * len(EMA_STREAMS) + "B"     # alpha, value, count each; flags
_ROW = 6 + 3 * len(EMA_STREAMS)       # the fields of ``journal_row``
#: An ``add`` frame's groups, each in :data:`~repro.workload.request.RECORD`
#: order: the request's scalars, every string, the request's vectors.
_SCALARS = record_fields(REQUEST_RECORD, "qd")
_TEXTS = record_fields(RECORD, "s")
_VECTORS = record_fields(REQUEST_RECORD, "v")
_scalars, _texts, _vectors = map(record_getter, (_SCALARS, _TEXTS, _VECTORS))
_FROM_TEXT = [KINDS[kind].from_text for _, kind, *_ in _TEXTS]
#: ``(position, encoder)`` of the text fields not stored as they are.
_ENCODED = [(i, KINDS[kind].to_text) for i, (_, kind, *_) in enumerate(_TEXTS)
            if KINDS[kind].to_text is not None]
_NAMES = [name for name, *_ in _SCALARS + _TEXTS + _VECTORS]
#: ``ExampleTable.journal_row``, the request's scalars, the embedding's and
#: each vector's size.
_EXAMPLE = struct.Struct("<3d2q" + _EMAS + "".join(
    KINDS[kind].code for _, kind, *_ in _SCALARS) + "I" * (1 + len(_VECTORS)))
#: quality, access_count, replay_count, the EMAs, decode-count entries.
_REWRITE = struct.Struct("<d2q" + _EMAS + "I")
_F8 = np.dtype("<f8")


def _pack_strings(*strings: str) -> bytes:
    """The strings' u32 byte lengths, then their UTF-8 bytes (ASCII text's
    byte lengths are its lengths, and its bytes one ``encode``)."""
    joined = "".join(strings)
    if joined.isascii():
        blobs, blob = strings, joined.encode("ascii")
    else:
        blobs = [s.encode("utf-8") for s in strings]
        blob = b"".join(blobs)
    return struct.pack(f"<{len(blobs)}I", *map(len, blobs)) + blob


def _unpack_strings(body: bytes, offset: int,
                    count: int) -> tuple[list[str], int]:
    """``count`` strings written by :func:`_pack_strings`, and the offset
    just past them."""
    lengths = struct.unpack_from(f"<{count}I", body, offset)
    offset += 4 * count
    strings = []
    for length in lengths:
        strings.append(str(body[offset:offset + length], "utf-8"))
        offset += length
    return strings, offset


def _encode_example(example) -> bytes:
    vectors = [np.asarray(vector, dtype=_F8)
               for vector in (example.embedding, *_vectors(example))]
    if {vector.ndim for vector in vectors} != {1}:
        raise ValueError(f"example {example.example_id!r}: vector shapes "
                         f"{[vector.shape for vector in vectors]}, not 1-D")
    texts = [*_texts(example)]
    for i, encode in _ENCODED:
        texts[i] = encode(texts[i])
    return b"".join([
        _EXAMPLE.pack(*example.journal_row(), *_scalars(example),
                      *[vector.size for vector in vectors]),
        _pack_strings(*texts), *[vector.tobytes() for vector in vectors]])


def _decode_example(body: bytes) -> dict:
    """``{"example": Example}``: a standalone example whose row is the
    frame's ``journal_row``."""
    fields = _EXAMPLE.unpack_from(body)
    texts, offset = _unpack_strings(body, _EXAMPLE.size, len(_TEXTS))
    vectors = []
    for size in fields[_ROW + len(_SCALARS):]:
        vectors.append(np.frombuffer(body, _F8, size, offset))
        offset += 8 * size
    record = dict(zip(_NAMES, [
        *fields[_ROW:_ROW + len(_SCALARS)],
        *[text if decode is None else decode(text)
          for decode, text in zip(_FROM_TEXT, texts)],
        *[vector.copy() for vector in vectors[1:]]]))
    # As the snapshot restores it: the fields as journaled, not re-checked
    # by the constructor (``check_record`` took them into the cache).
    request = object.__new__(Request)
    request.__dict__.update({name: record.pop(name)
                             for name, *_ in REQUEST_RECORD})
    example = Example(request=request, embedding=vectors[0],
                      quality=fields[0], source_cost=fields[1], **record)
    example.__dict__["_table"].write_journal_row(0, fields[:_ROW])
    return {"example": example}


def _encode_rewrite(payload: dict) -> bytes:
    # Only what replay refines and :func:`_apply_replay_rewrite` reads —
    # not the request, latent and embedding an ``add`` already journaled.
    example = payload["example"]
    counts = payload["teacher_decode_counts"]
    row = example.journal_row()
    return b"".join((
        _REWRITE.pack(row[0], *row[3:], len(counts)),
        _pack_strings(example.example_id, example.response_text, *counts),
        struct.pack(f"<{len(counts)}q", *counts.values())))


def _decode_rewrite(body: bytes) -> dict:
    """The refined fields: ``row`` is the example's ``journal_row`` without
    ``source_cost`` and ``created_at``, which replay never refines."""
    fields = _REWRITE.unpack_from(body)
    n_counts = fields[-1]
    (example_id, response_text, *request_ids), offset = _unpack_strings(
        body, _REWRITE.size, 2 + n_counts)
    return {
        "example_id": example_id, "response_text": response_text,
        "row": fields[:-1],
        "teacher_decode_counts": dict(zip(
            request_ids, struct.unpack_from(f"<{n_counts}q", body, offset))),
    }


def _flat(fmt: str, *names: str) -> tuple:
    """The codec of a record that is one flat dict of numbers."""
    packer = struct.Struct(fmt)
    return (lambda payload: packer.pack(*map(payload.__getitem__, names)),
            lambda body: dict(zip(names, packer.unpack(body))))


#: kind -> (wire code, body encoder, body decoder).
_CODECS = {
    kind: (code, encode, decode)
    for kind, code, (encode, decode) in zip(RECORD_KINDS, _WIRE_CODES, (
        (_encode_example, _decode_example),         # add
        (_pack_strings,                             # remove: the id
         lambda body: {"example_id": _unpack_strings(body, 0, 1)[0][0]}),
        _flat("<q", "trainings"),                   # retrain
        _flat("<q", "periods"),                     # decay
        _flat("<d", "now"),                         # clock
        _flat("<4q", "next_id", "admitted", "rejected_duplicates",
              "evictions"),                         # manager_counters
        (_encode_rewrite, _decode_rewrite),         # replay_rewrite
    ), strict=True)}
_KIND_OF_CODE = {code: kind for kind, (code, *_) in _CODECS.items()}


def _holds_complete_frame(tail: bytes, crc: int) -> bool:
    """Whether some prefix of ``tail`` satisfies ``crc``.

    A frame that claims to run past the end of the file is a torn append —
    unless the bytes on hand already hold a complete frame, in which case
    what is damaged is its length prefix.  Only ever runs on such a tail.
    """
    running = zlib.crc32(tail[:_HEAD.size - 1])
    for i in range(_HEAD.size - 1, len(tail)):
        running = zlib.crc32(tail[i:i + 1], running)
        if running == crc:
            return True
    return False


def _scan(path: Path, buf, verify: bool) -> tuple[list[tuple], int]:
    """Walk the frames of a journal image: ``(frames, valid end)``.

    Each frame is ``(offset, kind code, epoch, seq, end)``.  The fault
    rules: a *short* final frame (prefix or body cut) is a torn append and
    ends the walk — the caller drops or truncates what follows ``valid
    end``; a complete frame whose CRC does not match (checked when
    ``verify``), an impossible or damaged length, and a gap in ``seq`` are
    corruption and raise ``ValueError`` naming path, frame and offset; a
    file that does not start with :data:`MAGIC` is not a journal of this
    format and is refused, naming the format version it found if any.
    """
    size = len(buf)
    if buf[:len(MAGIC)] != MAGIC:
        if MAGIC.startswith(buf[:size]):
            return [], 0    # empty, or torn while the magic was written
        head = bytes(buf[:len(MAGIC)])
        if head[:6] == MAGIC[:6] and head[7:] == b"\n":
            raise ValueError(
                f"{path} is a version-{head[6]} IC-Cache journal, magic "
                f"{head!r} (this reader speaks version {MAGIC[6]} only)")
        raise ValueError(
            f"{path} is not a framed IC-Cache journal (a JSON-lines journal "
            "from an older tree replays only on the tree that wrote it)")
    frames: list[tuple] = []
    offset = len(MAGIC)

    def corrupt(what: str) -> ValueError:
        return ValueError(f"{path}: frame {len(frames)} at byte offset "
                          f"{offset} {what} (journal corrupt)")

    while size - offset >= _PREFIX.size:
        length, crc = _PREFIX.unpack_from(buf, offset)
        start = offset + _PREFIX.size
        end = start + length
        if length < _HEAD.size:
            raise corrupt(f"has impossible length {length}")
        if end > size:
            if _holds_complete_frame(buf[start:size], crc):
                raise corrupt("has a damaged length prefix")
            break
        if verify and zlib.crc32(buf[start:end]) != crc:
            raise corrupt("fails its CRC")
        code, epoch, seq = _HEAD.unpack_from(buf, start)
        if seq != len(frames):
            raise corrupt(f"has seq {seq}: a record is missing")
        frames.append((offset, code, epoch, seq, end))
        offset = end
    return frames, offset


def read_journal(path: str | Path) -> tuple[list[dict], list[int], int]:
    """Validate and decode a journal: ``(records, frame sizes in bytes,
    bytes of torn tail dropped)``; ``records`` is what
    :meth:`WriteAheadLog.read` returns.

    An ``add`` record's data is ``{"example": Example}``, a standalone
    example :func:`apply_wal` adopts into the cache (so a record list is
    applied once); a ``replay_rewrite`` record's is its row fields (see
    :func:`_decode_rewrite`); every other kind's is a flat dict."""
    path = Path(path)
    if not path.exists():
        return [], [], 0
    buf = path.read_bytes()
    frames, valid_end = _scan(path, buf, verify=True)
    records = []
    for offset, code, epoch, seq, end in frames:
        kind = _KIND_OF_CODE.get(code)
        if kind is None:
            raise ValueError(f"{path}: frame {seq} at byte offset {offset} "
                             f"has unknown kind code {code}")
        body = buf[offset + _PREFIX.size + _HEAD.size:end]
        records.append({"seq": seq, "epoch": epoch, "kind": kind,
                        "data": _CODECS[kind][2](body)})
    return (records, [end - offset for offset, *_, end in frames],
            len(buf) - valid_end)


class _Group:
    """:meth:`WriteAheadLog.group`'s ``with`` block.  As the outermost one
    closes, ``closing()`` runs first (what it records joins the write), and
    ``closed()`` after the write unless an exception is passing."""

    def __init__(self, wal: "WriteAheadLog", closed, closing=None) -> None:
        self.wal = wal
        self.closed = closed
        self.closing = closing

    def __enter__(self) -> None:
        self.wal._depth += 1

    def __exit__(self, exc_type, exc, traceback) -> None:
        wal = self.wal
        try:
            if wal._depth == 1 and self.closing is not None:
                self.closing()
        finally:
            wal._depth -= 1
            if not wal._depth:
                wal.flush()
        if not wal._depth and self.closed is not None and exc_type is None:
            self.closed()


class WriteAheadLog:
    """Append-only journal of cache mutation records.

    Low-level: callers attach its :meth:`record` as ``cache.journal`` (or
    go through :class:`Checkpointer`, which also owns compaction).  One
    unbuffered append handle stays open across records; a record is one
    ``write`` of one whole frame, the records of a :meth:`group` (one
    admission, eviction pass or replay pass) one ``write`` of all their
    frames, handed to the OS before the operation returns, so by the time
    an operation's effects can be observed, its records survive a
    *process* crash (power-loss durability would additionally need an
    fsync per write — out of scope for the simulation substrate, and
    noted in ``docs/PERSISTENCE.md``).

    ``epoch`` stamps every record with the journal generation it belongs
    to (bumped by :meth:`reset`); recovery uses it to ignore records a
    crash stranded from before the newest snapshot.
    """

    def __init__(self, path: str | Path, epoch: int = 0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.epoch = int(epoch)
        self._fh = None   # persistent append handle, opened lazily
        # Resuming over an existing journal only needs the record count
        # (seq continuity) and the valid end, so it hops the length
        # prefixes of the mapped file; CRC validation and decoding are
        # deferred to :meth:`read`.  A torn final frame is truncated now,
        # or the next append would land behind it and strand every later
        # record.
        self._seq = 0
        self._bytes = 0
        self._depth = 0                   # open groups (they nest)
        self._pending: list[bytes] = []   # encoded frames not yet written
        if self.path.exists() and self.path.stat().st_size:
            with self.path.open("rb") as fh, mmap.mmap(
                    fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
                frames, self._bytes = _scan(self.path, buf, verify=False)
                torn = len(buf) > self._bytes
            self._seq = len(frames)
            if torn:
                os.truncate(self.path, self._bytes)

    def __len__(self) -> int:
        return self._seq

    @property
    def size_bytes(self) -> int:
        """Current journal size, frames of an open group included
        (drives size-triggered compaction).

        A running in-process counter — this log owns the only write
        handle, so counting bytes as they are written avoids a ``stat``
        syscall per journaled mutation on the admission/eviction path.
        """
        return self._bytes

    def group(self, closed=None) -> _Group:
        """``with`` block whose records leave in one ``write`` at its end
        (the outermost, when groups nest; out of an exception too — the
        frames on hand describe mutations that happened), after which
        ``closed()`` runs unless an exception is passing."""
        return _Group(self, closed)

    def record(self, kind: str, payload) -> None:
        """Encode one mutation record (the journal callback) and append it,
        now or with its group.

        The payload is read here and the frame is complete before it can
        reach a ``write``: a payload that cannot be encoded (an int outside
        i64, a latent that is no float vector) raises with the file, and
        the group's earlier frames, untouched.
        """
        try:
            code, encode, _ = _CODECS[kind]
        except KeyError:
            raise ValueError(f"unknown WAL record kind {kind!r}") from None
        rest = _HEAD.pack(code, self.epoch, self._seq) + encode(payload)
        size = len(rest)
        frame = _PREFIX.pack(size, zlib.crc32(rest)) + rest
        if not self._bytes:    # the magic opens a journal, in the same write
            frame = MAGIC + frame
            size += len(MAGIC)
        self._pending.append(frame)
        self._seq += 1
        self._bytes += _PREFIX.size + size
        if not self._depth:
            self.flush()

    def flush(self) -> None:
        """Hand the pending frames to the OS in one ``write``.  A write
        that comes up short or raises — disk full, an I/O error, an append
        handle that cannot open — is truncated back and raises: none of
        them landed, and ``seq`` and the size return to where they stood
        before the first."""
        if not self._pending:
            return
        frames = len(self._pending)
        data = b"".join(self._pending)
        self._pending.clear()
        try:
            if self._fh is None:
                self._fh = self.path.open("ab", buffering=0)
            written = self._fh.write(data)
            if written != len(data):
                raise OSError(f"{self.path}: short journal write "
                              f"({written} of {len(data)} bytes)")
        except BaseException:
            self._seq -= frames
            self._bytes -= len(data)
            if self.path.exists():      # not when the open is what failed
                os.truncate(self.path, self._bytes)
            raise

    def reset(self, epoch: int | None = None) -> None:
        """Truncate the journal (called right after a fresh snapshot).

        ``epoch`` advances the generation stamp for subsequent records so
        they pair with the snapshot that triggered the truncation.
        """
        self.close()
        self.path.write_bytes(b"")
        self._seq = 0
        self._bytes = 0
        if epoch is not None:
            self.epoch = int(epoch)

    def close(self) -> None:
        """Write what an open group holds and release the append handle
        (reopened lazily)."""
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """Decode every record in seq order, as ``{"seq", "epoch", "kind",
        "data"}`` dicts (arrays as ndarrays), by :func:`_scan`'s rules: a
        torn final frame is dropped (the snapshot plus the valid prefix
        recover correctly), corruption anywhere raises."""
        return read_journal(path)[0]


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
    (recovery must not re-journal itself), and it adopts the records'
    examples as they are; returns the number of records applied.
    """
    cache = service.cache
    if cache.journal is not None:
        raise RuntimeError("detach the cache journal before WAL replay")
    for record in records:
        kind = record["kind"]
        data = record["data"]
        if kind == "add":
            cache.add(data["example"])
        elif kind == "remove":
            cache.remove(data["example_id"])
        elif kind == "retrain":
            _apply_retrain(cache, data)
        elif kind == "decay":
            service.manager.decay_periods(int(data["periods"]))
        elif kind == "clock":
            service.clock.advance_to(float(data["now"]))
        elif kind == "manager_counters":
            restore_counters(service.manager, data)
        elif kind == "replay_rewrite":
            _apply_replay_rewrite(service, data)
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")
    return len(records)


def _apply_retrain(cache, data: dict) -> None:
    """Re-fire the lazy K-Means (re)trains the original search triggered.

    The index's key order at this point in the replay matches the
    original run's (adds/removes were replayed in order), so a forced
    retrain reproduces identical centroids and blocks.
    """
    index = cache._index
    while index.trainings < int(data["trainings"]):
        if not index.retrain():
            raise RuntimeError(
                "WAL retrain replay diverged: index refused to train")


def _apply_replay_rewrite(service: "ICCacheService", data: dict) -> None:
    """Redo one replay refinement: rebind the response text and splice the
    refined fields into the example's current ``journal_row`` (the
    embedding is untouched — replay never re-embeds), then advance the
    teacher's decode position for that request."""
    example = service.cache.get(data["example_id"])
    example.response_text = data["response_text"]
    row = data["row"]
    d = example.__dict__
    d["_table"].write_journal_row(
        d["_row"], (row[0], *example.journal_row()[1:3], *row[1:]))
    teacher = service.manager.replay_engine.teacher \
        if service.manager.replay_engine is not None else None
    if teacher is not None:
        for request_id, count in data["teacher_decode_counts"].items():
            teacher._decode_counts[request_id] = int(count)


def _refuse_legacy_journal(directory: Path) -> None:
    legacy = directory / "wal.jsonl"
    if legacy.exists():
        raise ValueError(
            f"{legacy} is a JSON-lines journal from an older tree; this one "
            f"reads framed {Checkpointer.WAL_NAME} only — recover and "
            "checkpoint with the tree that wrote it, then remove the file")


class Checkpointer:
    """Snapshot + WAL under one directory, with size-triggered compaction.

    ``directory/snapshot.json`` is the latest full snapshot;
    ``directory/wal.bin`` journals cache mutations since: the instance is
    the journal it attaches (call it to record, :meth:`group` brackets one
    operation).  When the WAL has grown past ``compact_after_bytes`` at
    the end of an operation — a group, or a record outside one — a fresh
    snapshot is taken and the journal truncated: compaction is just
    "checkpoint now".  :meth:`recover` inverts the whole arrangement.  A
    directory still holding an older tree's ``wal.jsonl`` is refused, not
    half-read.
    """

    SNAPSHOT_NAME = "snapshot.json"
    WAL_NAME = "wal.bin"

    def __init__(self, service: "ICCacheService", directory: str | Path,
                 compact_after_bytes: int | None = None) -> None:
        self.service = service
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        _refuse_legacy_journal(self.directory)
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
        # Its state is the log's depth: one serves every operation.
        self._group = _Group(self.wal, self._compact_if_due,
                             self._journal_counters)
        self.checkpoints = 0
        self.compactions = 0
        self._checkpointing = False
        self.attach()

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / self.WAL_NAME

    def attach(self) -> None:
        """Start journaling the service's cache mutations, and the manager's
        counters from the values they hold now."""
        self._counters = counters(self.service.manager)
        self.service.cache.journal = self

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
        Re-attaching also resets the retrain-detection and counters
        baselines to the just-snapshotted values.
        """
        from repro.persistence.snapshot import write_snapshot

        self._checkpointing = True
        try:
            new_epoch = self._epoch + 1
            path = write_snapshot(self.service, self.snapshot_path,
                                  wal_epoch=new_epoch)
            self._epoch = new_epoch
            self.wal.reset(epoch=new_epoch)
            if self.service.cache.journal is self:
                self.attach()   # reset the retrain and counters baselines
            self.checkpoints += 1
            self.service.pipeline.run_checkpoint(self.service)
        finally:
            self._checkpointing = False
        return path

    def __call__(self, kind: str, payload) -> None:
        self.wal.record(kind, payload)
        if not self.wal._depth:
            self._compact_if_due()

    def group(self) -> _Group:
        """:meth:`WriteAheadLog.group`, closed by the manager's counters
        when they moved, with compaction tested after its write: a
        snapshot never holds half an admission."""
        return self._group

    def _journal_counters(self) -> None:
        """A ``manager_counters`` frame, when the counters differ from the
        last ones journaled (or seen at :meth:`attach`)."""
        now = counters(self.service.manager)
        if now != self._counters and self.service.cache.journal is self:
            self.wal.record("manager_counters", now)
            self._counters = now

    def _compact_if_due(self) -> None:
        if (self.compact_after_bytes is not None
                and not self._checkpointing
                and self.wal.size_bytes > self.compact_after_bytes):
            # The operation's effects are already part of live state, so
            # the fresh snapshot subsumes its records; dropping the journal
            # loses nothing.  ``_checkpointing`` guards against re-entry
            # when an on_checkpoint hook itself mutates the cache.
            self.checkpoint()
            self.compactions += 1

    @classmethod
    def recover(cls, directory: str | Path,
                config: "ICCacheConfig | None" = None,
                models: dict | None = None) -> "ICCacheService":
        """Rebuild a service from ``directory``: snapshot, then WAL replay.

        Returns the recovered service with no journal attached.  To resume
        durable operation, wrap it in a new :class:`Checkpointer` over the
        same directory **and call** :meth:`checkpoint` — that compacts the
        just-replayed tail into a fresh snapshot, so the next recovery
        does not replay it again (construction alone never snapshots).
        """
        directory = Path(directory)
        _refuse_legacy_journal(directory)
        return recover_service(
            directory / cls.SNAPSHOT_NAME, directory / cls.WAL_NAME,
            str(directory), config=config, models=models)[0]


def recover_service(snapshot_path: str | Path, wal_path: str | Path,
                    source: str, **restore) -> tuple["ICCacheService", int]:
    """The snapshot restored (``restore`` goes to :func:`restore_service`),
    then the journal's records of its epoch replayed: ``(service, records
    applied)``.  ``source`` names the journal in errors and warnings."""
    snapshot = load_snapshot(snapshot_path)
    service = restore_service(snapshot, **restore)
    records = filter_stale_records(WriteAheadLog.read(wal_path), snapshot,
                                   source=source)
    return service, apply_wal(service, records)
