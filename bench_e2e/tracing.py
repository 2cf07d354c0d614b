"""Outside-in span recorder for the ``--trace`` run, and the per-layer table.

Spans are recorded from this directory only: :func:`instrument` replaces
public callables *on the live objects* of a built service (and three module
level names) with wrappers that note name, start, end, parent and a numeric
payload.  Nothing under ``src/`` is edited, the wrappers draw no random
numbers and return what the wrapped callable returned, so a traced run makes
the decisions of an untraced one -- ``run.py`` checks that by digest.

One request is in flight at a time in every workload (closed loop, one
caller), so a plain stack gives the parent of each span, also across the
gateway's tasks: every server-side span starts and ends inside the client's
``post`` span.  Spans stay in memory and are written out at exit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

# Root span names: one served request (or one batch) / one maintenance tick.
OP = "op"
TICK = "tick"

RETRAIN = "vectorstore.retrain"


class SpanRecorder:
    """Append-only span store; ``begin``/``end`` bracket hand-made spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: list[float] = []
        self.request_ids: dict[int, str] = {}   # root span index -> id
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, request_id: str | None = None) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.values.append(0.0)
        self.ends.append(0.0)
        if request_id is not None:
            self.request_ids[index] = request_id
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, value=None, watch=None):
        """``fn`` with a span around each call.

        ``value(args, result)`` gives the span's numeric payload (a count
        the per-layer table needs).  ``watch()`` is read before and after:
        a call during which it changed is booked as ``RETRAIN`` instead,
        so a lazy K-Means landing inside a search is not averaged into the
        search time.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, values, stack = self.parents, self.values, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            values.append(0.0)
            ends.append(0.0)
            stack.append(index)
            before = watch() if watch is not None else None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if value is not None:
                values[index] = float(value(args, result))
            if watch is not None and watch() != before:
                names[index] = RETRAIN
            return result

        return traced

    def wrap_async(self, fn, name: str, value=None):
        """:meth:`wrap` for a coroutine function."""

        async def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                self.end(index)
            if value is not None:
                self.values[index] = float(value(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, value=None, watch=None) -> None:
        """Replace ``owner.attr`` (an instance or a module) by its wrapper."""
        setattr(owner, attr,
                self.wrap(getattr(owner, attr), name, value, watch))

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Durations, self times and root of every span, as arrays.

        A span's self time is its duration minus its direct children's.
        Parents always precede children, so one forward pass finds roots.
        """
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent],
                                 weights=duration[has_parent],
                                 minlength=len(duration))
        roots = list(range(len(self.parents)))
        for i, parent in enumerate(self.parents):   # plain ints: 300k spans
            if parent >= 0:
                roots[i] = roots[parent]
        return {"start": starts, "end": ends, "parent": parents,
                "duration": duration, "self": duration - child_time,
                "root": np.asarray(roots, dtype=np.int64),
                "value": np.asarray(self.values)}

    def write(self, path: Path) -> None:
        """Dump every span: name, start, end (ns from the first span),
        parent index, numeric payload and the request id of its root."""
        data = self.arrays()
        origin = float(data["start"][0]) if len(self) else 0.0
        unique = sorted(set(self.names))
        code = {name: i for i, name in enumerate(unique)}
        root_ids = [self.request_ids.get(int(r), "") for r in data["root"]]
        request_table = sorted(set(root_ids))
        request_code = {rid: i for i, rid in enumerate(request_table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({
                "columns": "span i = (names[name[i]], start_ns[i], end_ns[i],"
                           " parent[i] or -1, value[i],"
                           " request_ids[request[i]])",
                "names": unique,
                "request_ids": request_table,
                "name": [code[n] for n in self.names],
                "start_ns": np.rint((data["start"] - origin) * 1e9)
                .astype(np.int64).tolist(),
                "end_ns": np.rint((data["end"] - origin) * 1e9)
                .astype(np.int64).tolist(),
                "parent": data["parent"].tolist(),
                "value": data["value"].tolist(),
                "request": [request_code[rid] for rid in root_ids],
            }, fh, separators=(",", ":"))


def index_of(cache):
    """The vector index behind an ``ExampleCache``.

    The one private attribute this benchmark reads: the cache exposes no
    public retrain counter or index length, and both are read-only here.
    """
    return cache._index


def instrument(recorder: SpanRecorder, service, checkpointer=None,
               session=None, client=None) -> None:
    """Wrap the layer boundaries of one built service, outside-in."""
    pipeline = service.pipeline
    cache = service.cache
    manager = service.manager
    index = index_of(cache)
    patch = recorder.patch

    def trainings() -> int:
        return index.trainings

    patch(pipeline, "decide_batch", "pipeline.decide_batch")
    patch(pipeline, "generate", "pipeline.generate")
    patch(pipeline, "complete", "pipeline.complete")
    patch(pipeline.retrieval, "retrieve_batch", "pipeline.retrieve_batch")
    patch(pipeline.embedder, "embed", "embedding.embed")
    patch(service.selector, "select", "core.selector.select",
          value=lambda args, result: len(result))
    patch(service.selector, "select_batch", "core.selector.select",
          value=lambda args, result: sum(len(c) for c in result))
    patch(cache, "search", "vectorstore.search",
          value=lambda args, result: 1, watch=trainings)
    patch(cache, "search_batch", "vectorstore.search",
          value=lambda args, result: len(args[0]), watch=trainings)
    patch(cache, "nearest_similarity", "vectorstore.dedupe_probe",
          value=lambda args, result: 1, watch=trainings)
    patch(cache, "add", "core.cache.add")
    patch(cache, "remove", "core.cache.remove")
    patch(service.proxy, "score_batch", "core.proxy.score_batch",
          value=lambda args, result: len(args[1]))
    patch(service.proxy, "update", "core.proxy.update")
    patch(pipeline.routing, "route", "core.router.route",
          value=lambda args, result: bool(result.solicit_feedback))
    patch(service.router, "update", "core.router.update")
    for model in service.models.values():
        patch(model, "generate", "llm.generate")
    from repro.pipeline.middleware import LearningHook
    for middleware in pipeline.middlewares:
        if isinstance(middleware, LearningHook):
            patch(middleware, "after_complete", "core.service.learn")
    patch(pipeline.admission, "admit", "core.manager.admit",
          value=lambda args, result: result is not None)
    patch(manager, "record_use", "core.manager.record_use")
    patch(manager, "enforce_capacity", "core.manager.enforce_capacity",
          value=lambda args, result: result)
    patch(manager, "apply_decay", "core.manager.apply_decay")
    patch(manager, "run_replay", "core.manager.run_replay")
    import repro.core.manager
    patch(repro.core.manager, "sanitize_text", "privacy.sanitize")

    if checkpointer is not None:
        wal = checkpointer.wal
        sizes = [wal.size_bytes]

        def appended(args, result) -> int:
            grown = wal.size_bytes - sizes[0]
            sizes[0] = wal.size_bytes
            return grown

        def rebase(args, result) -> int:
            sizes[0] = wal.size_bytes      # the checkpoint truncated the WAL
            return 0

        patch(wal, "record", "persistence.wal_record", value=appended)
        patch(checkpointer, "checkpoint", "persistence.checkpoint",
              value=rebase)

    if session is not None:
        import repro.gateway.app
        patch(session, "submit", "serving.submit")
        patch(session, "run_until_complete", "serving.run_until_complete")
        patch(repro.gateway.app, "request_from_payload", "gateway.decode")
        patch(repro.gateway.app, "record_to_payload", "gateway.encode")
    if client is not None:
        client.post = recorder.wrap_async(
            client.post, "gateway.post",
            value=lambda args, result: not result.ok)


# -- the per-layer table ---------------------------------------------------

#: (metric name, unit) in print order; ``BENCHMARK.json`` lists the same.
PER_LAYER = [
    ("embedding.embed_us", "us"),
    ("vectorstore.search_us", "us"),
    ("vectorstore.dedupe_probe_us", "us"),
    ("vectorstore.searches_per_req", "count"),
    ("vectorstore.retrain_count", "count"),
    ("vectorstore.retrain_ms_total", "ms"),
    ("vectorstore.recall_at_20", "share"),
    ("vectorstore.index_bytes_per_example", "bytes"),
    ("core.selector.select_self_us", "us"),
    ("core.selector.examples_per_req", "count"),
    ("core.proxy.score_us", "us"),
    ("core.proxy.rows_scored_per_req", "count"),
    ("core.proxy.update_us", "us"),
    ("core.router.route_us", "us"),
    ("core.router.update_us", "us"),
    ("core.router.solicit_share", "share"),
    ("llm.generate_us", "us"),
    ("llm.generates_per_req", "count"),
    ("core.service.learn_self_us", "us"),
    ("core.manager.record_use_us", "us"),
    ("core.manager.admit_self_us", "us"),
    ("core.manager.admit_accept_share", "share"),
    ("privacy.sanitize_us", "us"),
    ("core.cache.add_us", "us"),
    ("core.manager.evict_us", "us"),
    ("core.manager.evict_passes_per_req", "count"),
    ("core.manager.evicted_per_pass", "count"),
    ("core.cache.remove_us_per_evicted", "us"),
    ("core.manager.decay_us_per_tick", "us"),
    ("core.manager.replay_ms_per_tick", "ms"),
    ("persistence.wal_append_us", "us"),
    ("persistence.wal_bytes_per_req", "bytes"),
    ("persistence.checkpoint_ms", "ms"),
    ("persistence.checkpoints", "count"),
    ("persistence.snapshot_bytes", "bytes"),
    ("persistence.recover_s", "s"),
    ("pipeline.decide_self_us", "us"),
    ("pipeline.complete_self_us", "us"),
    ("serving.sim_us", "us"),
    ("gateway.client_codec_us", "us"),
    ("gateway.decode_us", "us"),
    ("gateway.encode_us", "us"),
    ("gateway.writer_wait_us", "us"),
    ("gateway.transport_us", "us"),
    ("gateway.non2xx_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
]


def per_layer_metrics(recorder: SpanRecorder, op_factors: dict[int, float],
                      n_requests: int) -> dict[str, float]:
    """Aggregate spans into the span-derived rows of ``PER_LAYER``.

    ``op_factors`` maps each timed root span (request ops and ticks) to its
    host-speed factor; every span inherits the factor of its root, and spans
    under other roots (set-up, warm-up) are left out.  Rows a workload
    measures outside the spans (recall, bytes, recover time) are filled in
    by the caller.
    """
    data = recorder.arrays()
    names = np.asarray(recorder.names)
    factor = np.zeros(len(names))
    for root, f in op_factors.items():
        factor[root] = f
    factor = factor[data["root"]]                 # 0 outside the timed phase
    timed = factor > 0
    root_names = names[data["root"]]
    in_op = timed & (root_names == OP)
    self_s = data["self"] * factor
    total_s = data["duration"] * factor
    value = data["value"]

    def select(*span_names: str, where=timed) -> np.ndarray:
        return where & np.isin(names, span_names)

    def per_req_us(mask: np.ndarray, times=self_s) -> float:
        return float(times[mask].sum()) / n_requests * 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return float(numerator) / float(denominator) if denominator else 0.0

    searches = select("vectorstore.search", "vectorstore.dedupe_probe")
    retrains = select(RETRAIN)
    selects = select("core.selector.select")
    scores = select("core.proxy.score_batch")
    routes = select("core.router.route")
    generates = select("llm.generate", where=in_op)
    admits = select("core.manager.admit")
    evict_calls = select("core.manager.enforce_capacity", where=in_op)
    evict_passes = evict_calls & (value > 0)
    removes = select("core.cache.remove")
    ticks = timed & (names == TICK)
    n_ticks = int(ticks.sum())
    checkpoints = select("persistence.checkpoint")
    wal_records = select("persistence.wal_record")
    posts = select("gateway.post")
    op_roots = timed & (names == OP)

    # decode end -> submit start, per gateway request: the hop through the
    # writer queue.  Both spans are children of the same post span.
    decode_idx = np.nonzero(select("gateway.decode"))[0]
    submit_idx = np.nonzero(select("serving.submit"))[0]
    writer_wait = 0.0
    if len(decode_idx) and len(decode_idx) == len(submit_idx):
        writer_wait = float(((data["start"][submit_idx]
                              - data["end"][decode_idx])
                             * factor[submit_idx]).sum())

    root_time = float(total_s[op_roots | ticks].sum())
    return {
        "embedding.embed_us": per_req_us(select("embedding.embed")),
        "vectorstore.search_us": per_req_us(select("vectorstore.search")),
        "vectorstore.dedupe_probe_us":
            per_req_us(select("vectorstore.dedupe_probe")),
        "vectorstore.searches_per_req":
            ratio(value[searches | retrains].sum(), n_requests),
        "vectorstore.retrain_count": float(retrains.sum()),
        "vectorstore.retrain_ms_total": float(self_s[retrains].sum()) * 1e3,
        "core.selector.select_self_us": per_req_us(selects),
        "core.selector.examples_per_req":
            ratio(value[selects].sum(), n_requests),
        "core.proxy.score_us": per_req_us(scores),
        "core.proxy.rows_scored_per_req":
            ratio(value[scores].sum(), n_requests),
        "core.proxy.update_us": per_req_us(select("core.proxy.update")),
        "core.router.route_us": per_req_us(routes),
        "core.router.update_us": per_req_us(select("core.router.update")),
        "core.router.solicit_share":
            ratio(value[routes].sum(), routes.sum()),
        "llm.generate_us": per_req_us(generates),
        "llm.generates_per_req": ratio(generates.sum(), n_requests),
        "core.service.learn_self_us":
            per_req_us(select("core.service.learn")),
        "core.manager.record_use_us":
            per_req_us(select("core.manager.record_use")),
        "core.manager.admit_self_us": per_req_us(admits),
        "core.manager.admit_accept_share":
            ratio(value[admits].sum(), admits.sum()),
        "privacy.sanitize_us": per_req_us(select("privacy.sanitize")),
        "core.cache.add_us": per_req_us(select("core.cache.add")),
        "core.manager.evict_us": per_req_us(evict_calls),
        "core.manager.evict_passes_per_req":
            ratio(evict_passes.sum(), n_requests),
        "core.manager.evicted_per_pass":
            ratio(value[evict_passes].sum(), evict_passes.sum()),
        "core.cache.remove_us_per_evicted":
            ratio(self_s[removes].sum() * 1e6, removes.sum()),
        "core.manager.decay_us_per_tick":
            ratio(total_s[select("core.manager.apply_decay")].sum() * 1e6,
                  n_ticks),
        "core.manager.replay_ms_per_tick":
            ratio(total_s[select("core.manager.run_replay")].sum() * 1e3,
                  n_ticks),
        "persistence.wal_append_us": per_req_us(wal_records),
        "persistence.wal_bytes_per_req":
            ratio(value[wal_records].sum(), n_requests),
        "persistence.checkpoint_ms":
            ratio(total_s[checkpoints].sum() * 1e3, checkpoints.sum()),
        "persistence.checkpoints": float(checkpoints.sum()),
        "pipeline.decide_self_us": per_req_us(
            select("pipeline.decide_batch", "pipeline.retrieve_batch")),
        "pipeline.complete_self_us": per_req_us(
            select("pipeline.complete", "pipeline.generate")),
        "serving.sim_us": per_req_us(
            select("serving.submit", "serving.run_until_complete")),
        "gateway.client_codec_us":
            per_req_us(select("gateway.client_codec")),
        "gateway.decode_us": per_req_us(select("gateway.decode")),
        "gateway.encode_us": per_req_us(select("gateway.encode")),
        "gateway.writer_wait_us": writer_wait / n_requests * 1e6,
        "gateway.transport_us":
            per_req_us(posts) - writer_wait / n_requests * 1e6,
        "gateway.non2xx_share": ratio(value[posts].sum(), posts.sum()),
        "trace.unattributed_share":
            ratio(self_s[op_roots | ticks].sum(), root_time),
    }
