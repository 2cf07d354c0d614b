"""Versioned full-state snapshots of a running :class:`ICCacheService`.

The snapshot is the durable half of the persistence subsystem (the WAL in
:mod:`repro.persistence.wal` covers the tail between snapshots).  Its
defining property is *warm-restart determinism*: a service rebuilt from a
snapshot serves bit-identically to one that never stopped, which means the
format must capture more than the obvious data:

* **Examples** — full records including the per-example gain/feedback EMAs
  (section 4.3 bookkeeping); the byte total is the sum of a stored column.
* **Index layout, not just membership** — the flat storage's row order is
  the index's entire add/remove history (swap-delete moves the last row
  into the hole) and is exactly what K-Means reads at retrain time, so it
  is serialized as-is; the IVF cluster blocks, centroids, churn counter,
  and training count ride along (see ``to_state`` on each index class).
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
Custom ``models=`` or ``shard_fn=`` objects are code, not state, and must
be re-supplied to :func:`restore_service`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.stats import EMA
from repro.core.cache import ShardedExampleCache
from repro.core.config import (
    ICCacheConfig,
    IndexConfig,
    ManagerConfig,
    RouterConfig,
    SelectorConfig,
)
from repro.core.example import Example
from repro.core.table import COLUMN_SCHEMA, EMBEDDING, ExampleTable, attached_rows
from repro.vectorstore.ivf import IVFIndex
from repro.vectorstore.sharded import ShardedIndex
from repro.workload.request import Request, TaskType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> persistence)
    from repro.core.service import ICCacheService

SNAPSHOT_FORMAT = "ic-cache-snapshot"
SNAPSHOT_VERSION = 5

#: Sidecar array offsets are padded to this alignment so every mapped view
#: is at least cache-line aligned regardless of the preceding array's size.
SIDECAR_ALIGN = 64


# -- JSON-safe encoding of numpy state ------------------------------------

def encode_array(array: np.ndarray) -> dict:
    """One ndarray as a JSON-safe record, bit-exact.

    Raw bytes (base64) plus ``dtype.str`` — which includes byte order — and
    shape.  Never textual floats: ``repr`` round-trips in Python but a raw
    byte image is unambiguous across readers and obviously exact.
    """
    arr = np.ascontiguousarray(array)
    return {
        "__ndarray__": base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
    }


def decode_array(record: dict) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(record["__ndarray__"]),
                        dtype=np.dtype(record["dtype"]))
    return arr.reshape(record["shape"]).copy()


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


def _encode(obj, sidecar: SidecarBuilder | None = None):
    """Recursively convert a state structure into JSON-serializable form.

    With a ``sidecar`` builder, array bytes go to the sidecar and the JSON
    gets an ``__extarray__`` reference; without one (a request's metadata
    blob, see :func:`metadata_blob`), arrays inline as base64.
    """
    if isinstance(obj, np.ndarray):
        return sidecar.add(obj) if sidecar is not None else encode_array(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, dict):
        return {key: _encode(value, sidecar) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(value, sidecar) for value in obj]
    return obj


def _decode(obj, sidecar: SidecarReader | None = None):
    """Inverse of :func:`_encode` (arrays come back as ndarrays).

    Inline base64 (request metadata) decodes to a fresh array,
    ``__extarray__`` resolves to a copy-on-write view of the mapped sidecar.
    """
    # Exact type checks: json.loads only ever yields dict/list/str/int/
    # float/bool/None, and this walk visits every node of a snapshot (tens
    # of records per example), so isinstance dispatch is measurable.
    t = type(obj)
    if t is dict:
        if "__ndarray__" in obj:
            return decode_array(obj)
        if "__extarray__" in obj:
            if sidecar is None:
                raise ValueError(
                    "snapshot contains sidecar array references but no "
                    "sidecar file is associated with this document"
                )
            return sidecar.resolve(obj["__extarray__"])
        return {key: _decode(value, sidecar) for key, value in obj.items()}
    if t is list:
        return [_decode(value, sidecar) for value in obj]
    return obj


def metadata_blob(metadata: dict) -> str:
    """``request.metadata`` as one string: ``""`` for the common empty dict,
    else JSON run through :func:`_encode` first, so embedded ndarrays keep a
    bit-exact base64 encoding.  The snapshot's metadata column and the
    journal's ``add`` frames both carry this form."""
    if not metadata:
        return ""
    return json.dumps(_encode(metadata), separators=(",", ":"))


def metadata_from_blob(blob: str) -> dict:
    """Inverse of :func:`metadata_blob`."""
    return _decode(json.loads(blob)) if blob else {}


# -- component records ------------------------------------------------------

def ema_record(ema: EMA) -> dict:
    return {"alpha": ema.alpha, "value": ema._value, "count": ema.count}


def ema_from_record(record: dict) -> EMA:
    ema = EMA(alpha=record["alpha"])
    ema._value = record["value"]
    ema.count = int(record["count"])
    return ema


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


def request_from_record(record: dict) -> Request:
    return Request(
        request_id=record["request_id"],
        dataset=record["dataset"],
        task=TaskType(record["task"]),
        text=record["text"],
        latent=np.asarray(record["latent"], dtype=float),
        topic_id=int(record["topic_id"]),
        difficulty=float(record["difficulty"]),
        prompt_tokens=int(record["prompt_tokens"]),
        target_output_tokens=int(record["target_output_tokens"]),
        arrival_time=float(record["arrival_time"]),
        metadata=dict(record["metadata"]),
    )


def example_from_record(record: dict) -> Example:
    return Example(
        example_id=record["example_id"],
        request=request_from_record(record["request"]),
        response_text=record["response_text"],
        embedding=np.asarray(record["embedding"], dtype=float),
        quality=float(record["quality"]),
        source_model=record["source_model"],
        source_cost=float(record["source_cost"]),
        created_at=float(record["created_at"]),
        access_count=int(record["access_count"]),
        replay_count=int(record["replay_count"]),
        gain_ema=ema_from_record(record["gain_ema"]),
        offload_gain=ema_from_record(record["offload_gain"]),
        feedback_quality=ema_from_record(record["feedback_quality"]),
    )


def examples_columns_state(cache) -> dict:
    """The example pool as bulk columns + string blobs.

    Rows are emitted in cache-insertion order (dict order IS iteration
    order, and downstream passes — decay, replay ranking ties — iterate
    the pool), NOT table-row order: table rows are a swap-delete history
    artifact and carry no meaning.  Embeddings are one gather of the
    table's matrix.  Raises ``ValueError`` naming the example when a latent
    does not share the pool's 1-D shape: such a pool has no ``(n, dim)``
    latent matrix, and nothing is written (an embedding of another shape
    never gets in: ``Example`` and the cache's ``add`` refuse it).
    """
    examples = list(cache)
    n = len(examples)
    ids = [ex.example_id for ex in examples]
    requests = [ex.request for ex in examples]
    latents = [np.asarray(r.latent, dtype=float) for r in requests]
    if latents:
        shape = latents[0].shape
        for example, latent in zip(examples, latents):
            if latent.ndim != 1 or latent.shape != shape:
                raise ValueError(
                    f"example {example.example_id!r} has latent shape "
                    f"{latent.shape}, the pool's is {shape}; a snapshot "
                    "stores one (n, dim) matrix per field"
                )
    table = cache.table
    rows = attached_rows(examples)[1] if n else np.empty(0, dtype=np.intp)
    bookkeeping = table.gather(rows)
    # The table owns the pool's one embedding matrix (and its one dim).
    embeddings = table.col(EMBEDDING)[rows] if n else np.empty((0, 0))
    return {
        "n": n,
        "ids": encode_str_column(ids),
        "response_texts": encode_str_column(
            [ex.response_text for ex in examples]),
        "source_models": encode_str_column(
            [ex.source_model for ex in examples]),
        "embeddings": embeddings,
        "bookkeeping": bookkeeping,
        "request": {
            "request_ids": encode_str_column(
                [r.request_id for r in requests]),
            "datasets": encode_str_column([r.dataset for r in requests]),
            "tasks": encode_str_column([r.task.value for r in requests]),
            "texts": encode_str_column([r.text for r in requests]),
            "metadata": encode_str_column(
                [metadata_blob(r.metadata) for r in requests]),
            "latents": np.stack(latents) if n else np.empty((0, 0)),
            "topic_ids": np.fromiter((r.topic_id for r in requests),
                                     dtype=np.int64, count=n),
            "difficulties": np.fromiter((r.difficulty for r in requests),
                                        dtype=np.float64, count=n),
            "prompt_tokens": np.fromiter((r.prompt_tokens for r in requests),
                                         dtype=np.int64, count=n),
            "target_output_tokens": np.fromiter(
                (r.target_output_tokens for r in requests),
                dtype=np.int64, count=n),
            "arrival_times": np.fromiter((r.arrival_time for r in requests),
                                         dtype=np.float64, count=n),
        },
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
    ids = decode_str_column(columns["ids"])
    response_texts = decode_str_column(columns["response_texts"])
    source_models = decode_str_column(columns["source_models"])
    req = columns["request"]
    request_ids = decode_str_column(req["request_ids"])
    datasets = decode_str_column(req["datasets"])
    tasks = decode_str_column(req["tasks"])
    texts = decode_str_column(req["texts"])
    metadata = decode_str_column(req["metadata"])
    latents = np.asarray(req["latents"], dtype=float)
    topic_ids = np.asarray(req["topic_ids"]).tolist()
    difficulties = np.asarray(req["difficulties"]).tolist()
    prompt_tokens = np.asarray(req["prompt_tokens"]).tolist()
    target_output_tokens = np.asarray(req["target_output_tokens"]).tolist()
    arrival_times = np.asarray(req["arrival_times"]).tolist()
    task_by_value = {task.value: task for task in TaskType}
    examples: dict[str, Example] = {}
    for i in range(n):
        # Bypass the dataclass constructor: __post_init__ validation ran
        # when the record was first built, and serialized prompt_tokens are
        # always the post-init (positive) values.
        request = object.__new__(Request)
        request.__dict__.update(
            request_id=request_ids[i],
            dataset=datasets[i],
            task=task_by_value[tasks[i]],
            text=texts[i],
            latent=latents[i],
            topic_id=topic_ids[i],
            difficulty=difficulties[i],
            prompt_tokens=prompt_tokens[i],
            target_output_tokens=target_output_tokens[i],
            arrival_time=arrival_times[i],
            metadata=metadata_from_blob(metadata[i]),
        )
        examples[ids[i]] = Example._attached_view(
            table, i, ids[i], request, response_texts[i], source_models[i],
        )
    return examples, table


def snapshot_example_count(cache_state_doc: dict) -> int:
    """Number of examples in a ``cache_state`` section."""
    return int(cache_state_doc["examples_columns"]["n"])


def cache_state(cache) -> dict:
    """Serializable state of an ExampleCache / ShardedExampleCache."""
    return {
        "sharded": isinstance(cache, ShardedExampleCache),
        "index": cache._index.to_state(),
        "examples_columns": examples_columns_state(cache),
    }


def restore_cache_state(cache, state: dict, shard_fn=None) -> None:
    """Rebuild a cache's contents in place from :func:`cache_state` output.

    In place because the selector, manager, and pipeline policies all hold
    references to the live cache object — swapping internals under them is
    exactly what a warm restart needs.  ``shard_fn`` re-supplies a custom
    shard-assignment function (code, not state) for sharded layouts;
    existing keys keep their memoized assignments either way, but new adds
    would silently fall back to hash placement without it.

    The columnar table is rebuilt along with the pool by bulk array
    adoption of the ``examples_columns`` section.
    """
    sharded = bool(state["sharded"])
    if sharded != isinstance(cache, ShardedExampleCache):
        raise ValueError(
            "snapshot cache layout does not match the configured one "
            f"(snapshot sharded={sharded}); check config.cache_shards"
        )
    cache._examples, cache._table = _restore_examples_columns(
        state["examples_columns"])
    if sharded:
        cache._index = ShardedIndex.from_state(state["index"],
                                               shard_fn=shard_fn)
    else:
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
            **service.manager.counters(),
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
    selector = dict(record.pop("selector"))
    selector["threshold_grid"] = tuple(selector["threshold_grid"])
    return ICCacheConfig(
        selector=SelectorConfig(**selector),
        router=RouterConfig(**record.pop("router")),
        manager=ManagerConfig(**record.pop("manager")),
        index=IndexConfig(**record.pop("index")),
        **record,
    )


def restore_service(snapshot: dict, config: ICCacheConfig | None = None,
                    models: dict | None = None,
                    shard_fn=None) -> "ICCacheService":
    """Build a service and load ``snapshot`` into it.

    ``config`` overrides the stored one (the cache layout must match);
    ``models`` re-supplies custom model objects when the original service
    was built with some (their RNG positions are restored either way);
    ``shard_fn`` re-supplies a custom shard-assignment function for
    sharded caches.
    """
    from repro.core.service import ICCacheService

    cfg = config if config is not None else config_from_record(
        snapshot["config"]
    )
    service = ICCacheService(cfg, models=models)

    service.clock.reset(float(snapshot["clock_now"]))
    service.selector_enabled = bool(snapshot["selector_enabled"])
    service.router_enabled = bool(snapshot["router_enabled"])
    restore_cache_state(service.cache, snapshot["cache"],
                        shard_fn=shard_fn)

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
    service.manager.restore_counters(manager)

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
