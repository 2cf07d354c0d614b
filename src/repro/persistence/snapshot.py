"""Versioned full-state snapshots of a running :class:`ICCacheService`.

The snapshot is the durable half of the persistence subsystem (the WAL in
:mod:`repro.persistence.wal` covers the tail between snapshots).  Its
defining property is *warm-restart determinism*: a service rebuilt from a
snapshot serves bit-identically to one that never stopped, which means the
format must capture more than the obvious data:

* **Examples** — full records including the per-example gain/feedback EMAs
  (section 4.3 bookkeeping); the byte total is the sum of a stored column.
* **Index layout, not just membership** — the index's key order is its
  entire add/remove history (swap-delete moves the last key into the hole)
  and is the order K-Means reads the pool in at retrain time, so it is
  serialized as-is; the IVF cluster blocks (the one stored copy of every
  index vector), centroids, churn counter, and training count ride along
  (see :meth:`~repro.vectorstore.ivf.IVFIndex.to_state`).
* **Learned state** — router posteriors, proxy regression state, selector
  threshold adaptation, and the live ablation flags.
* **RNG stream positions** — the service, router, and feedback generators'
  bit-generator states plus every model's per-request decode counts; the
  repo's RNG discipline (per-entity seeded streams) makes these few
  numbers sufficient to resume every stochastic sequence mid-stream.

On disk a snapshot is a JSON manifest plus a raw little-endian **sidecar**
file holding every array's bytes at 64-byte-aligned offsets; the manifest
stores ``{offset, dtype, shape}`` references and the sidecar's filename.
Restore opens the sidecar once with ``np.memmap`` in copy-on-write mode, so
arrays come back as O(1) views — pages fault in on first touch and
mutations stay private — instead of paying a JSON+base64 decode per array.
The sidecar is content-hash named (``<manifest>.<digest>.bin``), which
makes the bin-then-json replace order crash-safe: a half-finished write
never changes the file the previous manifest points at.

The example pool is stored **columnar**: the cache's
:class:`~repro.core.table.ExampleTable` bookkeeping columns ride the
sidecar as whole arrays, string fields become offset-indexed UTF-8 blobs
(one ``int64`` offsets array of length n+1 plus one ``uint8`` byte array
per column), and embeddings/latents become one ``(n, dim)`` matrix each.
Restore is then bulk array adoption plus cheap per-example view
construction instead of per-example record decoding — two orders of
magnitude fewer Python-level operations.  Arrays round-trip bit-exactly;
scalar floats rely on JSON's shortest-roundtrip repr, which is also exact.
There is one format: :func:`load_snapshot` accepts exactly the ``version``
:func:`write_snapshot` writes and refuses every other, never guessing.

Not captured (by design): in-flight requests parked in the pipeline
(``pipeline._pending``) — a crash loses them, like any serving system;
their ids are recorded under ``in_flight`` for operator visibility.
Custom ``models=`` objects are code, not state, and must be re-supplied to
:func:`restore_service`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.stats import EMA
from repro.core.config import (
    ICCacheConfig,
    ManagerConfig,
    RouterConfig,
    SelectorConfig,
)
from repro.core.example import Example
from repro.core.table import COLUMN_SCHEMA, EMBEDDING, ExampleTable, attached_rows
from repro.vectorstore.ivf import IVFIndex
from repro.workload.request import (
    KINDS,
    RECORD,
    REQUEST_RECORD,
    Kind,
    Request,
    record_fields,
    record_getter,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> persistence)
    from repro.core.service import ICCacheService

SNAPSHOT_FORMAT = "ic-cache-snapshot"
SNAPSHOT_VERSION = 9

#: Sidecar array offsets are padded to this alignment so every mapped view
#: is at least cache-line aligned regardless of the preceding array's size.
SIDECAR_ALIGN = 64


# -- columns and the sidecar -------------------------------------------

def encode_str_column(strings: list[str]) -> dict:
    """A string column as one offset-indexed UTF-8 blob (two arrays).

    ``offsets`` has n+1 int64 entries; string i is
    ``data[offsets[i]:offsets[i+1]]`` decoded as UTF-8.  Two arrays instead
    of n JSON strings means the bytes ride the sidecar and restore decodes
    straight out of the mapped pages.
    """
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter((len(b) for b in encoded), dtype=np.int64,
                          count=len(encoded))
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return {
        "offsets": offsets,
        "data": np.frombuffer(b"".join(encoded), dtype=np.uint8),
    }


def decode_str_column(record: dict) -> list[str]:
    """Inverse of :func:`encode_str_column`."""
    offsets = np.asarray(record["offsets"]).tolist()
    data = np.ascontiguousarray(record["data"], dtype=np.uint8).tobytes()
    return [data[offsets[i]:offsets[i + 1]].decode("utf-8")
            for i in range(len(offsets) - 1)]


class SidecarBuilder:
    """Accumulates raw little-endian array bytes for the sidecar file.

    Each array lands at a :data:`SIDECAR_ALIGN`-aligned offset; the returned
    manifest record carries everything needed to map it back
    (``{offset, dtype, shape}`` under the ``__extarray__`` marker).
    """

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._offset = 0

    def add(self, array: np.ndarray) -> dict:
        arr = np.ascontiguousarray(array)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        pad = (-self._offset) % SIDECAR_ALIGN
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._offset += pad
        record = {"__extarray__": {
            "offset": self._offset,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }}
        payload = arr.tobytes()
        self._chunks.append(payload)
        self._offset += len(payload)
        return record

    def tobytes(self) -> bytes:
        return b"".join(self._chunks)


class SidecarReader:
    """Resolves ``__extarray__`` records against a memory-mapped sidecar.

    The file is mapped once, lazily, in ``mode='c'`` (copy-on-write): every
    resolved array is a view into the mapping, so restore cost is O(number
    of arrays), pages fault in on first touch, and any later in-place
    mutation dirties private pages without ever writing the snapshot back.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._buf: np.ndarray | None = None

    def resolve(self, record: dict) -> np.ndarray:
        dtype = np.dtype(record["dtype"])
        shape = tuple(int(s) for s in record["shape"])
        nbytes = dtype.itemsize * math.prod(shape)
        if nbytes == 0:
            return np.empty(shape, dtype=dtype)
        if self._buf is None:
            if not self.path.exists():
                raise ValueError(
                    f"snapshot references sidecar {self.path.name} "
                    "but the file is missing"
                )
            # Downcast the memmap to a plain ndarray view (same COW pages,
            # kept alive through .base): np.memmap.__array_finalize__ makes
            # per-array slicing ~10x more expensive, and a snapshot holds
            # one array per example.
            self._buf = np.asarray(
                np.memmap(self.path, dtype=np.uint8, mode="c"))
        offset = int(record["offset"])
        raw = self._buf[offset: offset + nbytes]
        if raw.shape[0] != nbytes:
            raise ValueError(
                f"sidecar {self.path.name} truncated: need {nbytes} bytes "
                f"at offset {offset}, have {raw.shape[0]}"
            )
        return raw.view(dtype).reshape(shape)


def _encode(obj, sidecar: SidecarBuilder):
    """Recursively convert a state structure into JSON-serializable form:
    array bytes go to the ``sidecar`` and the JSON gets an ``__extarray__``
    reference."""
    if isinstance(obj, np.ndarray):
        return sidecar.add(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, dict):
        return {key: _encode(value, sidecar) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(value, sidecar) for value in obj]
    return obj


def _decode(obj, sidecar: SidecarReader):
    """Inverse of :func:`_encode`: an ``__extarray__`` reference resolves
    to a copy-on-write view of the mapped sidecar."""
    # Exact type checks: json.loads only ever yields dict/list/str/int/
    # float/bool/None, and this walk visits every node of a snapshot (tens
    # of records per example), so isinstance dispatch is measurable.
    t = type(obj)
    if t is dict:
        if "__extarray__" in obj:
            return sidecar.resolve(obj["__extarray__"])
        return {key: _decode(value, sidecar) for key, value in obj.items()}
    if t is list:
        return [_decode(value, sidecar) for value in obj]
    return obj


# -- component records ------------------------------------------------------

def ema_record(ema: EMA) -> dict:
    return {"alpha": ema.alpha, "value": ema._value, "count": ema.count}


def restore_ema(ema: EMA, record: dict) -> None:
    """Overwrite an existing EMA's state in place (alpha included)."""
    ema.alpha = record["alpha"]
    ema._value = record["value"]
    ema.count = int(record["count"])


def rng_state(rng: np.random.Generator) -> dict:
    """The bit-generator state dict (plain ints, JSON-safe)."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    if rng.bit_generator.state["bit_generator"] != state["bit_generator"]:
        raise ValueError(
            f"snapshot RNG is {state['bit_generator']!r}, this process "
            f"built {rng.bit_generator.state['bit_generator']!r}"
        )
    rng.bit_generator.state = state


def counters(manager) -> dict:
    """The manager's running counters: the snapshot's ``manager`` section
    and a ``manager_counters`` record carry them."""
    return {"next_id": manager._next_id, "admitted": manager.admitted,
            "rejected_duplicates": manager.rejected_duplicates,
            "evictions": manager.evictions}


def restore_counters(manager, data: dict) -> None:
    """Inverse of :func:`counters` (snapshot restore, WAL redo)."""
    manager._next_id = int(data["next_id"])
    manager.admitted = int(data["admitted"])
    manager.rejected_duplicates = int(data["rejected_duplicates"])
    manager.evictions = int(data["evictions"])


#: The snapshot's groups: the example's strings at the top of the section,
#: the request's strings, vectors and scalars under ``request``.
_EXAMPLE_TEXTS = record_fields(RECORD[:-len(REQUEST_RECORD)], "s")
_FIELDS = _EXAMPLE_TEXTS + tuple(f for codes in ("s", "v", "qd")
                                 for f in record_fields(REQUEST_RECORD, codes))
_field_values = record_getter(_FIELDS)


def _column(examples: list, name: str, kind: Kind, values) -> object:
    """One field of the pool as its stored column."""
    if kind.code == "s":
        return encode_str_column(values if kind.to_text is None
                                 else list(map(kind.to_text, values)))
    if kind.code != "v":
        return np.fromiter(values, dtype="<" + kind.code, count=len(values))
    if not examples:
        return np.empty((0, 0))
    vectors = [np.asarray(v, dtype=float) for v in values]
    shape = vectors[0].shape
    for example, vector in zip(examples, vectors):
        if vector.ndim != 1 or vector.shape != shape:
            raise ValueError(
                f"example {example.example_id!r} has {name} shape "
                f"{vector.shape}, the pool's is {shape}; a snapshot "
                "stores one (n, dim) matrix per field")
    return np.stack(vectors)


def _read(kind: Kind, column) -> list:
    """A stored column back as the pool's values, row by row."""
    if kind.code == "s":
        texts = decode_str_column(column)
        return texts if kind.from_text is None \
            else list(map(kind.from_text, texts))
    if kind.code != "v":
        return np.asarray(column).tolist()
    return np.asarray(column, dtype=float)


def examples_columns_state(cache) -> dict:
    """The example pool as bulk columns + string blobs, one per field of
    :data:`~repro.workload.request.RECORD` under its column key.

    Rows are emitted in cache-insertion order (dict order IS iteration
    order, and downstream passes — decay, replay ranking ties — iterate
    the pool), NOT table-row order: table rows are a swap-delete history
    artifact and carry no meaning.  Embeddings are one gather of the
    table's matrix.  Raises ``ValueError`` naming the example when a latent
    does not share the pool's 1-D shape: such a pool has no ``(n, dim)``
    latent matrix, and nothing is written (``cache.add`` refuses such a
    latent; a latent rebound in place afterwards meets this check).
    """
    examples = list(cache)
    n = len(examples)
    values = zip(*map(_field_values, examples)) if n else [()] * len(_FIELDS)
    columns = {column: _column(examples, name, KINDS[kind], column_values)
               for (name, kind, column, _), column_values in zip(_FIELDS, values)}
    rows = attached_rows(examples)[1] if n else np.empty(0, dtype=np.intp)
    return {
        "n": n,
        **{column: columns.pop(column) for _, _, column, _ in _EXAMPLE_TEXTS},
        # The table owns the pool's one embedding matrix (and its one dim).
        "embeddings": cache.table.col(EMBEDDING)[rows] if n
        else np.empty((0, 0)),
        "bookkeeping": cache.table.gather(rows),
        "request": columns,
    }


def _restore_examples_columns(columns: dict) -> tuple[dict, ExampleTable]:
    """Bulk-rebuild the example pool from an ``examples_columns`` section.

    Returns ``(examples dict, table)``.  The table adopts the
    bookkeeping arrays directly (copy-on-write views of the sidecar); each
    Example is a cheap attached view bound to its row, so the per-example
    cost is a handful of ``__dict__`` stores instead of record decoding
    and validation.
    """
    n = int(columns["n"])
    table = ExampleTable.adopt_columns(
        n, {name: np.asarray(columns["bookkeeping"][name])
            for name, _ in COLUMN_SCHEMA},
        np.asarray(columns["embeddings"], dtype=float))
    stored = {**columns, **columns["request"]}
    split = len(_EXAMPLE_TEXTS)
    own_names = [name for name, *_ in _FIELDS[:split]]
    request_names = [name for name, *_ in _FIELDS[split:]]
    examples: dict[str, Example] = {}
    for i, row in enumerate(zip(*(_read(KINDS[kind], stored[column])
                                  for _, kind, column, _ in _FIELDS))):
        # Bypass the dataclass constructor: the fields come back as they
        # were stored (``check_record`` took them into the cache).
        request = object.__new__(Request)
        request.__dict__.update(zip(request_names, row[split:]))
        own = dict(zip(own_names, row[:split]))
        example = Example._attached_view(table, i, request=request, **own)
        table.bind_owner(i, example)
        examples[own["example_id"]] = example
    return examples, table


def snapshot_example_count(cache_state_doc: dict) -> int:
    """Number of examples in a ``cache_state`` section."""
    return int(cache_state_doc["examples_columns"]["n"])


def cache_state(cache) -> dict:
    """Serializable state of an :class:`~repro.core.cache.ExampleCache`."""
    return {
        "index": cache._index.to_state(),
        "examples_columns": examples_columns_state(cache),
    }


def restore_cache_state(cache, state: dict) -> None:
    """Rebuild a cache's contents in place from :func:`cache_state` output.

    In place because the selector, manager, and pipeline policies all hold
    references to the live cache object — swapping internals under them is
    exactly what a warm restart needs.

    The columnar table is rebuilt along with the pool by bulk array
    adoption of the ``examples_columns`` section.
    """
    cache._examples, cache._table = _restore_examples_columns(
        state["examples_columns"])
    cache._index = IVFIndex.from_state(state["index"])
    cache._journal = None
    cache._journal_trainings = 0


# -- the service snapshot ---------------------------------------------------

def service_state(service: "ICCacheService", wal_epoch: int = 0) -> dict:
    """Everything a warm restart needs, as one plain structure.

    ``wal_epoch`` stamps which journal generation this snapshot pairs
    with: :class:`~repro.persistence.wal.Checkpointer` bumps it every
    checkpoint, so recovery can tell a fresh WAL tail from records left
    behind by a crash *between* snapshot write and journal truncation.
    """
    router = service.router
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "wal_epoch": int(wal_epoch),
        "config": asdict(service.config),
        "clock_now": service.clock.now,
        "in_flight": sorted(service.pipeline._pending),
        "selector_enabled": service.selector_enabled,
        "router_enabled": service.router_enabled,
        "cache": cache_state(service.cache),
        "selector": {
            "utility_threshold": service.selector.utility_threshold,
            "requests_seen": service.selector._requests_seen,
            "recent_scored": [[u, t] for u, t in service.selector._recent_scored],
        },
        "proxy": {
            "precision": service.proxy._precision,
            "moment": service.proxy._moment,
            "weights": service.proxy.weights,   # flushes the lazy solve
            "updates": service.proxy.updates,
        },
        "router": {
            "rng": rng_state(router._rng),
            "load_ema": ema_record(router.load_ema),
            "decisions": router.decisions,
            "feedback_solicitations": router.feedback_solicitations,
            "arms": {
                name: {
                    "precision": posterior._precision,
                    "moment": posterior._moment,
                    "pulls": posterior.pulls,
                }
                for name, posterior in router._posteriors.items()
            },
        },
        "manager": {
            "last_decay": service.manager._last_decay,
            **counters(service.manager),
        },
        "service": {
            "rng": rng_state(service._rng),
            "feedback_rng": rng_state(service.feedback._rng),
            "stats": asdict(service.stats),
        },
        "models": {
            name: {
                "rng": rng_state(model._rng),
                "decode_counts": dict(model._decode_counts),
            }
            for name, model in service.models.items()
        },
    }


def write_snapshot(service: "ICCacheService", path: str | Path,
                   wal_epoch: int = 0) -> Path:
    """Serialize ``service`` to ``path``, atomically.

    Array bytes go to a content-hash named ``<name>.<digest>.bin`` next to
    the manifest and the JSON holds only references.  The whole image is
    encoded before anything touches the disk, so a pool that cannot be
    written (see :func:`examples_columns_state`) leaves the previous
    snapshot untouched.  Write order is bin first, then manifest, each via
    a sibling temp file and ``os.replace`` — and because the bin's name is
    a hash of its contents, a new image can never overwrite the bin the
    previous manifest points at (identical bytes replace harmlessly), so a
    crash at any point leaves a complete old image or a complete new one.
    Stale sidecars from earlier images, and any ``.tmp`` sibling a crashed
    write left behind, are removed after the manifest lands.
    """
    path = Path(path)
    state = service_state(service, wal_epoch=wal_epoch)
    builder = SidecarBuilder()
    doc = _encode(state, builder)
    blob = builder.tobytes()
    digest = hashlib.blake2b(blob, digest_size=8).hexdigest()
    bin_name = f"{path.name}.{digest}.bin"
    doc["sidecar"] = bin_name
    path.parent.mkdir(parents=True, exist_ok=True)
    bin_tmp = path.with_name(bin_name + ".tmp")
    bin_tmp.write_bytes(blob)
    os.replace(bin_tmp, path.with_name(bin_name))
    payload = json.dumps(doc, separators=(",", ":"))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(payload + "\n", encoding="utf-8")
    os.replace(tmp, path)
    for pattern in (".*.bin", "*.tmp"):
        for stale in path.parent.glob(path.name + pattern):
            if stale.name != bin_name:
                stale.unlink(missing_ok=True)
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read and decode a snapshot; validates format and version.

    Arrays resolve as copy-on-write ``np.memmap`` views of the sidecar.
    A manifest of any version but :data:`SNAPSHOT_VERSION` is refused:
    this reader knows one layout and does not guess at another.
    """
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path} is not an {SNAPSHOT_FORMAT} file")
    version = doc.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version} unsupported "
            f"(this reader speaks version {SNAPSHOT_VERSION} only)"
        )
    return _decode(doc, SidecarReader(path.with_name(doc["sidecar"])))


def config_from_record(record: dict) -> ICCacheConfig:
    """Rebuild the nested config dataclasses from their asdict form."""
    record = dict(record)
    return ICCacheConfig(
        selector=SelectorConfig(**record.pop("selector")),
        router=RouterConfig(**record.pop("router")),
        manager=ManagerConfig(**record.pop("manager")),
        **record,
    )


def restore_service(snapshot: dict, config: ICCacheConfig | None = None,
                    models: dict | None = None) -> "ICCacheService":
    """Build a service and load ``snapshot`` into it.

    ``config`` overrides the stored one; a snapshot whose index is not
    :data:`~repro.embedding.embedder.EMBEDDING_DIM` wide is refused;
    ``models`` re-supplies custom model objects when the original service
    was built with some (their RNG positions are restored either way).
    """
    from repro.core.service import ICCacheService
    from repro.embedding.embedder import EMBEDDING_DIM

    cfg = config if config is not None else config_from_record(
        snapshot["config"]
    )
    dim = int(snapshot["cache"]["index"]["dim"])
    if dim != EMBEDDING_DIM:
        raise ValueError(f"snapshot index dim {dim} != the service's "
                         f"embedding dim {EMBEDDING_DIM}")
    service = ICCacheService(cfg, models=models)

    service.clock.reset(float(snapshot["clock_now"]))
    service.selector_enabled = bool(snapshot["selector_enabled"])
    service.router_enabled = bool(snapshot["router_enabled"])
    restore_cache_state(service.cache, snapshot["cache"])

    sel = snapshot["selector"]
    service.selector.utility_threshold = sel["utility_threshold"]
    service.selector._requests_seen = int(sel["requests_seen"])
    service.selector._recent_scored = [
        (utility, int(tokens)) for utility, tokens in sel["recent_scored"]
    ]

    proxy = snapshot["proxy"]
    service.proxy._precision = np.ascontiguousarray(proxy["precision"])
    service.proxy._moment = np.ascontiguousarray(proxy["moment"])
    service.proxy._weights = np.ascontiguousarray(proxy["weights"])
    service.proxy.updates = int(proxy["updates"])

    router = snapshot["router"]
    stored_arms = set(router["arms"])
    live_arms = set(service.router._posteriors)
    if stored_arms != live_arms:
        raise ValueError(
            f"snapshot router arms {sorted(stored_arms)} != "
            f"configured arms {sorted(live_arms)}"
        )
    for name, arm in router["arms"].items():
        posterior = service.router._posteriors[name]
        posterior._precision = np.ascontiguousarray(arm["precision"])
        posterior._moment = np.ascontiguousarray(arm["moment"])
        posterior.pulls = int(arm["pulls"])
    set_rng_state(service.router._rng, router["rng"])
    restore_ema(service.router.load_ema, router["load_ema"])
    service.router.decisions = int(router["decisions"])
    service.router.feedback_solicitations = int(
        router["feedback_solicitations"]
    )

    manager = snapshot["manager"]
    service.manager._last_decay = float(manager["last_decay"])
    restore_counters(service.manager, manager)

    svc = snapshot["service"]
    set_rng_state(service._rng, svc["rng"])
    set_rng_state(service.feedback._rng, svc["feedback_rng"])
    for field, value in svc["stats"].items():
        setattr(service.stats, field, value)

    stored_models = set(snapshot["models"])
    live_models = set(service.models)
    if not stored_models <= live_models:
        raise ValueError(
            f"snapshot has state for models {sorted(stored_models)} but "
            f"only {sorted(live_models)} are configured"
        )
    for name, model_state in snapshot["models"].items():
        model = service.models[name]
        set_rng_state(model._rng, model_state["rng"])
        model._decode_counts = {
            rid: int(count)
            for rid, count in model_state["decode_counts"].items()
        }
    return service
