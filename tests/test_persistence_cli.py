"""The operator CLI (``python -m repro.persistence.cli``) end to end.

Drives ``main(argv)`` in process (capsys for output) over real snapshot
and WAL files: ``snapshot`` builds a fixture, ``inspect`` reads it back
(human lines plus the ``--json`` summary), ``restore`` replays WAL tails —
including the stale-epoch case, where every journal record predates the
snapshot and exactly zero must be applied — ``wal`` dumps a journal frame
by frame (torn tail noted, a flipped bit refused), and the error paths exit
with code 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.cli import main
from repro.persistence.wal import MAGIC, Checkpointer, read_journal
from repro.workload.datasets import SyntheticDataset

BANK = 30
SERVE = 5


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    """A real snapshot produced by the CLI's own ``snapshot`` command."""
    out = tmp_path_factory.mktemp("cli") / "snapshot.json"
    assert main(["snapshot", "--out", str(out), "--bank", str(BANK),
                 "--serve", str(SERVE)]) == 0
    return out


class TestSnapshot:
    def test_reports_what_it_wrote(self, snapshot_path, capsys):
        # The fixture already ran the command; run again for the output.
        out = snapshot_path.parent / "again.json"
        assert main(["snapshot", "--out", str(out), "--bank", str(BANK),
                     "--serve", str(SERVE)]) == 0
        printed = capsys.readouterr().out
        assert str(out) in printed
        assert f"{SERVE} served" in printed
        assert out.is_file()
        assert json.loads(out.read_text(encoding="utf-8"))["format"]


class TestInspect:
    def test_inventory_lines(self, snapshot_path, capsys):
        assert main(["inspect", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "format:" in out
        assert "examples" in out
        assert f"served={SERVE}" in out
        assert "monolithic index" in out

    def test_json_summary(self, snapshot_path, capsys):
        assert main(["inspect", str(snapshot_path), "--json"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["served"] == SERVE
        assert summary["examples"] > 0
        assert summary["total_bytes"] > 0

    def test_v3_per_column_stats(self, snapshot_path, capsys):
        """A snapshot inspects as a columnar pool: one line per
        bookkeeping column, string blob, and embedding matrix."""
        assert main(["inspect", str(snapshot_path), "--json"]) == 0
        n = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1])["examples"]
        assert main(["inspect", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "columnar pool" in out
        assert "col quality" in out
        assert "col offload_gain__value" in out
        assert "str response_texts" in out
        assert "str request.metadata" in out
        assert "mat embeddings" in out
        assert f"shape ({n}," in out


class TestRestore:
    def test_restore_snapshot_and_serve(self, snapshot_path, capsys):
        assert main(["restore", str(snapshot_path), "--serve", "2"]) == 0
        out = capsys.readouterr().out
        assert "restored:" in out
        assert f"{SERVE} served" in out
        # Two demo requests actually served on the restored instance.
        assert out.count("-> ") == 2

    def test_restore_with_stale_epoch_wal(self, tmp_path, capsys):
        """A WAL wholly superseded by the snapshot replays zero records."""
        service = ICCacheService(ICCacheConfig(
            seed=0, manager=ManagerConfig(sanitize=False)))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=0)
        service.seed_cache(dataset.example_bank_requests()[:BANK])
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        for request in dataset.online_requests(SERVE):
            service.serve(request, load=0.3)
        assert len(checkpointer.wal) > 0
        # Preserve the epoch-0 journal, then checkpoint: the snapshot bumps
        # to epoch 1 and subsumes every preserved record.
        stale_wal = tmp_path / "stale_wal.bin"
        shutil.copy(checkpointer.wal_path, stale_wal)
        checkpointer.checkpoint()

        assert main(["restore", str(checkpointer.snapshot_path),
                     "--wal", str(stale_wal)]) == 0
        out = capsys.readouterr().out
        assert f"replayed 0 WAL records from {stale_wal}" in out
        assert "restored:" in out

    def test_restore_checkpoint_directory(self, tmp_path, capsys):
        service = ICCacheService(ICCacheConfig(
            seed=0, manager=ManagerConfig(sanitize=False)))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=0)
        service.seed_cache(dataset.example_bank_requests()[:BANK])
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        assert main(["restore", str(tmp_path / "ckpt")]) == 0
        assert "restored:" in capsys.readouterr().out


class TestWal:
    @pytest.fixture
    def journal(self, tmp_path):
        """A checkpoint directory whose journal holds one served window."""
        service = ICCacheService(ICCacheConfig(
            seed=0, manager=ManagerConfig(sanitize=False)))
        dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=0)
        service.seed_cache(dataset.example_bank_requests()[:BANK])
        checkpointer = Checkpointer(service, tmp_path / "ckpt")
        checkpointer.checkpoint()
        for request in dataset.online_requests(SERVE):
            service.serve(request, load=0.3)
        service.clock.advance(3600.0)
        service.run_maintenance(replay=True)
        checkpointer.detach()
        return checkpointer.wal_path

    def test_one_line_per_frame(self, journal, capsys):
        records, sizes, _ = read_journal(journal)
        assert main(["wal", str(journal)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(records) > 0
        for line, record, nbytes in zip(lines, records, sizes):
            seq, epoch, kind, printed = line.split()[:4]
            assert (int(seq), int(epoch), kind, int(printed)) == (
                record["seq"], record["epoch"], record["kind"], nbytes)
        by_kind = {line.split()[2]: line for line in lines}
        assert "example_id=ex-" in by_kind["add"]
        assert "admitted=" in by_kind["manager_counters"]
        assert "teacher_decode_counts={" in by_kind["replay_rewrite"]
        # The checkpoint directory names the same journal.
        assert main(["wal", str(journal.parent)]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_json_lines(self, journal, capsys):
        records, sizes, _ = read_journal(journal)
        assert main(["wal", str(journal), "--json"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [(r["seq"], r["kind"], r["bytes"]) for r in rows] == [
            (r["seq"], r["kind"], n) for r, n in zip(records, sizes)]
        assert sum(sizes) + len(MAGIC) == journal.stat().st_size
        adds = [r for r in rows if r["kind"] == "add"]
        assert adds and all(set(r) == {"seq", "epoch", "kind", "bytes",
                                       "example_id"} for r in adds)

    def test_torn_tail_is_noted(self, journal, capsys):
        records = read_journal(journal)[0]
        journal.write_bytes(journal.read_bytes()[:-5])
        assert main(["wal", str(journal)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(records)       # one frame fewer + the note
        assert lines[-1].startswith("torn tail: ")
        assert f"after frame {len(records) - 2}" in lines[-1]

    def test_flipped_bit_exits_2_naming_frame_and_offset(self, journal,
                                                         capsys):
        sizes = read_journal(journal)[1]
        raw = bytearray(journal.read_bytes())
        offset = len(MAGIC) + sum(sizes[:3])
        raw[offset + 30] ^= 0x10                  # inside frame 3's body
        journal.write_bytes(bytes(raw))
        assert main(["wal", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert f"frame 3 at byte offset {offset}" in captured.err
        # Recovery refuses to start on the same journal.
        assert main(["restore", str(journal.parent)]) == 2
        assert "CRC" in capsys.readouterr().err

    def test_json_lines_journal_is_refused_by_name(self, tmp_path, capsys):
        legacy = tmp_path / "wal.jsonl"
        legacy.write_text('{"seq":0,"epoch":0,"kind":"clock",'
                          '"data":{"now":1.0}}\n', encoding="utf-8")
        assert main(["wal", str(legacy)]) == 2
        err = capsys.readouterr().err
        assert str(legacy) in err and "JSON-lines" in err

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["wal", str(tmp_path)]) == 2
        assert "no such file" in capsys.readouterr().err


class TestErrorPaths:
    def test_inspect_missing_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.json"
        assert main(["inspect", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert str(missing) in err

    def test_restore_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["restore", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_inspect_corrupt_json_exits_2(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{definitely not json", encoding="utf-8")
        assert main(["inspect", str(corrupt)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_wrong_format_exits_2(self, tmp_path, capsys):
        # Valid JSON that is not a snapshot: load_snapshot's validation
        # error surfaces as the one-line message, not a traceback.
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "something-else"}),
                         encoding="utf-8")
        assert main(["inspect", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err
