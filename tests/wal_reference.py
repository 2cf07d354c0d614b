"""The JSON-lines journal codec, kept verbatim as the frame codec's oracle.

Before the journal became CRC-checked binary frames
(:mod:`repro.persistence.wal`), every record was one ``json.dumps`` line:
payload -> :func:`example_record` dict of dicts -> JSON with every array
inline as :func:`repro.workload.request.encode_array` writes it (base64,
``tests/state_json.py``) -> a text-mode write and flush.
:class:`ReferenceWriteAheadLog` is that writer and reader, and
:func:`example_record` / :func:`request_record` the two record builders
that existed only for it, each with the body it had at the commit before
the rewrite.  ``WriteAheadLog.read`` over frames must return what
:meth:`ReferenceWriteAheadLog.read` returns over the lines written from the
same payloads — field for field, bit for bit
(``tests/test_persistence_wal_frames.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.example import Example
from repro.workload.request import Request
from tests import state_json
from tests.ema_reference import streams


def request_record(request: Request) -> dict:
    return {
        "request_id": request.request_id,
        "dataset": request.dataset,
        "task": request.task.value,
        "text": request.text,
        "latent": np.asarray(request.latent, dtype=float),
        "topic_id": request.topic_id,
        "difficulty": request.difficulty,
        "prompt_tokens": request.prompt_tokens,
        "target_output_tokens": request.target_output_tokens,
        "arrival_time": request.arrival_time,
        "metadata": request.metadata,
    }


def example_record(example: Example) -> dict:
    return {
        "example_id": example.example_id,
        "request": request_record(example.request),
        "response_text": example.response_text,
        "embedding": np.asarray(example.embedding, dtype=float),
        "quality": example.quality,
        "source_model": example.source_model,
        "source_cost": example.source_cost,
        "created_at": example.created_at,
        "access_count": example.access_count,
        "replay_count": example.replay_count,
        **{stream: ema.record() for stream, ema in streams(example).items()},
    }


class ReferenceWriteAheadLog:
    """``WriteAheadLog`` as it was: one JSON object per line."""

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
        return self._bytes

    def record(self, kind: str, payload) -> None:
        """Serialize and append one mutation record (the journal callback)."""
        if kind == "add":
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
                    **{stream: ema.record()
                       for stream, ema in streams(example).items()},
                },
                "teacher_decode_counts": dict(payload["teacher_decode_counts"]),
            }
        elif kind in ("retrain", "decay", "clock", "manager_counters"):
            data = dict(payload)
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        line = state_json.dumps({"seq": self._seq, "epoch": self.epoch,
                                 "kind": kind, "data": data},
                                separators=(",", ":"))
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        self._seq += 1
        self._bytes += len(line) + 1   # json.dumps escapes to pure ASCII

    def reset(self, epoch: int | None = None) -> None:
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
                records.append(state_json.loads(line))
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
