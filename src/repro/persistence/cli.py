"""Operator CLI for durable state: ``python -m repro.persistence.cli``.

Four subcommands (``docs/PERSISTENCE.md`` has a worked walkthrough):

* ``snapshot`` — build a seeded demo service (example bank + optional
  online traffic), then write a snapshot.  Useful for producing fixtures,
  CI artifacts, and cache pre-warming images.
* ``inspect`` — print a snapshot's header and state inventory without
  rebuilding a service (cheap, read-only).
* ``restore`` — rebuild a service from a snapshot (optionally replaying a
  WAL tail), report its state, and optionally serve a few requests to
  prove the warm restart works.
* ``wal`` — dump a journal (``wal.bin``) frame by frame: the operator's
  view of a binary file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _count(text: str) -> int:
    """An argparse type: a count of zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_demo_service(seed: int, bank: int, serve: int):
    """A seeded service with learned state, like the recovery tests use."""
    from repro.core.config import ICCacheConfig, ManagerConfig
    from repro.core.service import ICCacheService
    from repro.workload.datasets import SyntheticDataset

    config = ICCacheConfig(seed=seed, manager=ManagerConfig(sanitize=False))
    service = ICCacheService(config)
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=seed)
    # Bank first, online second: SyntheticDataset generation is
    # call-order dependent, and this is the order every bench uses.
    service.seed_cache(dataset.example_bank_requests()[:bank])
    for request in dataset.online_requests(serve):
        service.serve(request, load=0.3)
    return service


def cmd_snapshot(args: argparse.Namespace) -> int:
    service = _build_demo_service(args.seed, args.bank, args.serve)
    path = service.save(args.out)
    print(f"wrote {path} ({path.stat().st_size} bytes): "
          f"{len(service.cache)} examples, {service.stats.served} served")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.persistence.snapshot import (
        load_snapshot,
        snapshot_example_count,
    )

    snapshot = load_snapshot(args.path)
    cache = snapshot["cache"]
    index = cache["index"]
    stats = snapshot["service"]["stats"]
    sidecar = snapshot["sidecar"]
    sidecar_bytes = Path(args.path).with_name(sidecar).stat().st_size
    n_examples = snapshot_example_count(cache)
    columns = cache["examples_columns"]
    total_bytes = int(np.asarray(
        columns["bookkeeping"]["plaintext_bytes"]).sum())
    lines = [
        f"format:        {snapshot['format']} v{snapshot['version']}",
        f"sidecar:       {sidecar} ({sidecar_bytes} bytes, mmap)",
        f"clock:         {snapshot['clock_now']:.3f} s",
        f"cache:         {n_examples} examples, "
        f"{total_bytes} plaintext bytes, columnar pool",
    ]
    # The pool: one line per bookkeeping column, then the string blobs
    # and the dense matrices, as the section stores them.
    for name, arr in columns["bookkeeping"].items():
        arr = np.asarray(arr)
        lines.append(f"  col {name:<30} {arr.dtype.str:>5} "
                     f"{arr.nbytes:>10} bytes")
    stored = [*columns.items(), *((f"request.{key}", value) for key, value
                                  in columns["request"].items())]
    lines += [f"  str {name:<30} utf-8 {np.asarray(blob['data']).nbytes:>10}"
              " bytes" for name, blob in stored
              if isinstance(blob, dict) and "offsets" in blob]
    for name, arr in stored:
        if np.ndim(arr) == 2:
            lines.append(f"  mat {name:<30} {arr.dtype.str:>5} "
                         f"{arr.nbytes:>10} bytes  shape {arr.shape}")
    lines += [
        f"index:         {len(index['keys'])} rows, "
        f"{0 if index['centroids'] is None else index['centroids'].shape[0]}"
        f" clusters, {index['trainings']} trainings, "
        f"churn={index['churn']}",
        f"stats:         served={stats['served']} "
        f"offloaded={stats['offloaded']} bypasses={stats['bypasses']}",
        f"learning:      router_updates={stats['router_updates']} "
        f"proxy_updates={stats['proxy_updates']}",
        f"models:        "
        + ", ".join(f"{name} ({len(m['decode_counts'])} decode streams)"
                    for name, m in snapshot["models"].items()),
        f"in flight:     {len(snapshot['in_flight'])} "
        "(not restorable; lost on crash)",
    ]
    print("\n".join(lines))
    if args.json:
        summary = {
            "version": snapshot["version"],
            "examples": n_examples,
            "total_bytes": total_bytes,
            "served": stats["served"],
        }
        print(json.dumps(summary))
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    from repro.persistence.snapshot import load_snapshot, restore_service
    from repro.persistence.wal import Checkpointer, recover_service
    from repro.workload.datasets import SyntheticDataset

    path = Path(args.path)
    if path.is_dir() and args.wal:
        raise ValueError("--wal replays a journal after a snapshot file; "
                         f"{path} is a checkpoint directory with its own")
    if path.is_dir():
        service = Checkpointer.recover(path)
    elif args.wal:
        # Checkpointer.recover's body, stale-epoch filter included, so a
        # journal stranded by a crash mid-checkpoint is not double-applied
        # when the files are restored individually.
        service, applied = recover_service(path, args.wal, source=args.wal)
        print(f"replayed {applied} WAL records from {args.wal}")
    else:
        service = restore_service(load_snapshot(path))
    print(f"restored: {len(service.cache)} examples, "
          f"{service.stats.served} served, clock={service.clock.now:.3f} s")
    if args.serve:
        dataset = SyntheticDataset("ms_marco", scale=0.0005,
                                   seed=service.config.seed)
        dataset.example_bank_requests()  # keep generation call order stable
        requests = dataset.online_requests(service.stats.served + args.serve)
        for request in requests[-args.serve:]:
            outcome = service.serve(request, load=0.3)
            print(f"  {request.request_id} -> {outcome.choice.model_name} "
                  f"(quality {outcome.result.quality:.3f})")
    return 0


def cmd_wal(args: argparse.Namespace) -> int:
    from repro.persistence.wal import Checkpointer, read_journal

    path = Path(args.path)
    if path.is_dir():
        path = path / Checkpointer.WAL_NAME
    if not path.exists():
        raise FileNotFoundError(2, "no such journal", str(path))
    records, sizes, torn = read_journal(path)
    for record, nbytes in zip(records, sizes):
        # An example's state is shown by whose it is, not printed whole.
        data = {k: v for k, v in record["data"].items()
                if k not in ("response_text", "row")}
        if "example" in data:
            data = {"example_id": data["example"].example_id}
        row = {"seq": record["seq"], "epoch": record["epoch"],
               "kind": record["kind"], "bytes": nbytes, **data}
        if args.json:
            print(json.dumps(row))
        else:
            print(f"{row['seq']:>6} {row['epoch']:>5} {row['kind']:<16} "
                  f"{nbytes:>7}  "
                  + " ".join(f"{k}={v}" for k, v in data.items()))
    if torn and not args.json:
        print(f"torn tail: {torn} bytes of an unfinished append after "
              f"frame {len(records) - 1} (dropped by recovery, truncated "
              "on resume)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.persistence.cli",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot",
                          help="build a seeded demo service and snapshot it")
    snap.add_argument("--out", default="snapshot.json",
                      help="output snapshot path")
    snap.add_argument("--seed", type=int, default=0)
    snap.add_argument("--bank", type=_count, default=120,
                      help="example-bank requests to seed")
    snap.add_argument("--serve", type=_count, default=20,
                      help="online requests to serve before snapshotting")
    snap.set_defaults(fn=cmd_snapshot)

    ins = sub.add_parser("inspect",
                         help="print a snapshot's header and inventory")
    ins.add_argument("path", help="snapshot file")
    ins.add_argument("--json", action="store_true",
                     help="also print a machine-readable summary line")
    ins.set_defaults(fn=cmd_inspect)

    res = sub.add_parser("restore",
                         help="rebuild a service from a snapshot "
                              "(or a checkpoint directory)")
    res.add_argument("path",
                     help="snapshot file, or a Checkpointer directory "
                          "containing snapshot.json + wal.bin")
    res.add_argument("--wal",
                     help="journal (wal.bin) to replay after the snapshot")
    res.add_argument("--serve", type=_count, default=0,
                     help="serve this many demo requests after restoring")
    res.set_defaults(fn=cmd_restore)

    wal = sub.add_parser("wal", help="print a journal, one line per frame")
    wal.add_argument("path", help="journal file, or a Checkpointer "
                                  "directory containing wal.bin")
    wal.add_argument("--json", action="store_true",
                     help="one JSON object per frame instead")
    wal.set_defaults(fn=cmd_wal)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except FileNotFoundError as exc:
        # Operator-facing tool: a mistyped path gets a one-line message and
        # a distinct exit code, not a traceback.
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not a valid snapshot manifest (corrupt JSON): {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        # load_snapshot/WAL validation errors (wrong format, failed CRC,
        # bad seq, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
