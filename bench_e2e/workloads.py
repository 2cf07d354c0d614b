"""The four workloads of ``bench_e2e`` (see README.md for why these four).

Every workload is a closed loop with one caller: each entry point it drives
(``serve``, ``serve_batch``, loopback ``POST /serve`` on one connection) is
a blocking call on a single-writer service, so the next request is sent
when the previous one has returned.  Request streams are generated here
from ``--seed`` before timing starts; the program only ever receives the
generated ``Request`` objects.  Services are built through ``repro``'s
public API only.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import warnings
from pathlib import Path

import numpy as np

from repro import ICCacheConfig, ICCacheService
from repro.core.config import ManagerConfig
from repro.gateway import (
    AsyncGateway,
    GatewayClient,
    GatewaySession,
    request_to_payload,
)
from repro.persistence import Checkpointer
from repro.serving.cluster import ClusterConfig, ModelDeployment
from repro.utils.rng import make_rng, stable_hash
from repro.workload import SyntheticDataset

import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Paper Table 1 size of the ms_marco example bank; ``scale`` below is chosen
#: so that ``SyntheticDataset.example_count`` equals the bank we want.
_MS_MARCO_BANK = 808_731
_SEED_CHUNK = 50          # bank requests seeded between two probes
#: Seed of the topic model, the bank drawn from it and the service built on
#: it.  ``--seed`` picks the request stream sent to that fixed population
#: (which banked requests are re-asked, in what order, and which fresh
#: requests arrive), so two seeds are two samples of one workload and their
#: metrics differ by sampling error only, not by which world was generated.
POPULATION_SEED = 0


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much one run does.  ``ops`` are timed operations (requests, or
    batches of 16 in ``serve_batch16``); ``tick_every`` only matters to
    ``lifecycle_churn``."""

    bank: int
    ops: int
    warmup: int
    tick_every: int = 0
    compact_after_bytes: int = 0


#: Timed operations per second of ``--seconds`` and the bank each workload
#: runs against.  The rates are sized so that the timed phase lasts about
#: ``--seconds`` at the commit that introduced the benchmark; the work is a
#: pure function of (workload, seed, seconds), never of the clock, so two
#: commits measured with the same arguments do identical work.
FULL = {
    "serve_repeat": dict(bank=3000, rate=940, warmup=208),
    "serve_batch16": dict(bank=3000, rate=85, warmup=13),
    "lifecycle_churn": dict(bank=1500, rate=310, warmup=100, tick_every=250,
                            compact_after_bytes=2_000_000),
    "gateway_serve": dict(bank=1000, rate=790, warmup=200),
}
SMOKE = {
    "serve_repeat": Sizes(bank=300, ops=300, warmup=20),
    "serve_batch16": Sizes(bank=300, ops=20, warmup=2),
    "lifecycle_churn": Sizes(bank=200, ops=300, warmup=20, tick_every=100,
                             compact_after_bytes=150_000),
    "gateway_serve": Sizes(bank=200, ops=300, warmup=20),
}

#: ``slo_ok_share`` counts operations that returned a checked-correct result
#: within this corrected latency: 4x the p50 measured when the benchmark
#: was introduced.  Frozen; a faster program does not move the limit.
SLO_LIMIT_MS = {
    "serve_repeat": 3.4,
    "serve_batch16": 45.0,
    "lifecycle_churn": 11.5,
    "gateway_serve": 5.0,
}


def sizes_for(name: str, seconds: int, smoke: bool) -> Sizes:
    if smoke:
        return SMOKE[name]
    spec = dict(FULL[name])
    return Sizes(ops=spec.pop("rate") * seconds, **spec)


class ServeRepeat:
    """``ICCacheService.serve`` over 80% verbatim re-asks, 20% fresh."""

    name = "serve_repeat"
    batch = 1
    reask_share = 0.8

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.service: ICCacheService | None = None
        self.seeded = 0

    # -- inputs --------------------------------------------------------------

    def make_inputs(self) -> None:
        sizes = self.sizes
        self.dataset = SyntheticDataset(
            "ms_marco", scale=sizes.bank / _MS_MARCO_BANK, seed=POPULATION_SEED)
        self.bank = self.dataset.example_bank_requests()[:sizes.bank]
        n_requests = (sizes.warmup + sizes.ops) * self.batch
        stream = self._stream(n_requests)
        step = self.batch
        items = [stream[i] if step == 1 else stream[i:i + step]
                 for i in range(0, n_requests, step)]
        self.warmup_items = items[:sizes.warmup]
        self.timed_items = items[sizes.warmup:]

    def _stream(self, n: int) -> list:
        """The request mix.  A re-ask copies a banked request *before* the
        bank is seeded (admission sanitizes ``request.text`` in place), so
        its text, hence its embedding, equals the banked example's and
        admission rejects it as a near-duplicate; the new id gives it its
        own decode stream."""
        # One generator per decision, so a longer stream extends a shorter
        # one: serve_batch16 continues the very stream serve_repeat serves.
        is_reask = make_rng(stable_hash("bench_e2e", "mix", self.seed)
                            ).random(n) < self.reask_share
        picks = make_rng(stable_hash("bench_e2e", "pick", self.seed)
                         ).integers(0, len(self.bank), size=n)
        fresh = iter(self.dataset.generate_requests(
            int((~is_reask).sum()), split=f"online-s{self.seed}"))
        return [
            dataclasses.replace(
                self.bank[pick], request_id=f"re{i}-{self.bank[pick].request_id}",
                metadata={})
            if again else next(fresh)
            for i, (again, pick) in enumerate(zip(is_reask, picks))
        ]

    @staticmethod
    def item_id(item) -> str:
        return item.request_id

    # -- set-up --------------------------------------------------------------

    def _build(self, meter) -> ICCacheService:
        start = meter.begin()
        service = ICCacheService(ICCacheConfig(
            seed=POPULATION_SEED, manager=ManagerConfig(sanitize=True)))
        meter.end(start)
        for i in range(0, len(self.bank), _SEED_CHUNK):
            start = meter.begin()
            self.seeded += service.seed_cache(self.bank[i:i + _SEED_CHUNK])
            meter.end(start)
        return service

    async def setup(self, meter, recorder) -> None:
        self.service = self._build(meter)
        if recorder is not None:
            tracing.instrument(recorder, self.service)

    async def teardown(self) -> None:
        return None

    # -- the timed operation and its checks ----------------------------------

    async def op(self, item):
        return self.service.serve(item)

    def check(self, item, outcome) -> tuple[list[tuple], str | None]:
        return self._check_outcomes([item], [outcome])

    def _check_outcomes(self, requests, outcomes):
        if len(outcomes) != len(requests):
            return [], f"{len(outcomes)} outcomes for {len(requests)} requests"
        decisions = []
        for request, outcome in zip(requests, outcomes):
            result = outcome.result
            problem = check_decision(self.service, request.request_id,
                                     outcome.request.request_id,
                                     result.model_name, result.quality)
            if problem:
                return decisions, problem
            decisions.append((request.request_id, result.model_name,
                              result.n_examples))
        return decisions, None

    def after_op(self) -> str | None:
        return None

    def tick_due(self, done: int) -> bool:
        return False

    def invariants(self) -> list[str]:
        return cache_invariants(self.service)

    def layer_extras(self) -> dict[str, float]:
        return {}


class ServeBatch16(ServeRepeat):
    """``serve_batch`` in batches of 16 over the mix and bank of
    ``serve_repeat``: the pair isolates batching."""

    name = "serve_batch16"
    batch = 16

    @staticmethod
    def item_id(item) -> str:
        return "batch:" + item[0].request_id

    async def op(self, item):
        return self.service.serve_batch(item)

    def check(self, item, outcomes):
        return self._check_outcomes(item, outcomes)


class LifecycleChurn(ServeRepeat):
    """All-fresh requests against a full cache with a journal attached.

    ``capacity_bytes`` is the seeded bank's size, so every admission forces
    a knapsack eviction pass; a ``Checkpointer`` journals every mutation and
    snapshots when the WAL outgrows ``compact_after_bytes``; every
    ``tick_every`` requests the clock moves 30 min and a maintenance pass
    (decay, evict, replay) runs.  The timed phase runs on the *recovered*
    service: set-up is build + checkpoint + ``Checkpointer.recover``.
    """

    name = "lifecycle_churn"
    reask_share = 0.0

    async def setup(self, meter, recorder) -> None:
        built = self._build(meter)
        self.capacity = built.cache.total_bytes
        built.manager.config.capacity_bytes = self.capacity
        self.directory = OUT_DIR / f"churn-{self.seed}-{os.getpid()}"
        shutil.rmtree(self.directory, ignore_errors=True)
        first = Checkpointer(built, self.directory)
        start = meter.begin()
        first.checkpoint()
        meter.end(start)
        first.detach()
        meter.label = "recover"
        start = meter.begin()
        self.service = Checkpointer.recover(self.directory,
                                            config=built.config)
        meter.end(start)
        meter.label = "setup"
        self.checkpointer = Checkpointer(
            self.service, self.directory,
            compact_after_bytes=self.sizes.compact_after_bytes)
        start = meter.begin()
        self.checkpointer.checkpoint()
        meter.end(start)
        if recorder is not None:
            tracing.instrument(recorder, self.service,
                               checkpointer=self.checkpointer)

    async def teardown(self) -> None:
        self.checkpointer.detach()
        shutil.rmtree(self.directory, ignore_errors=True)

    def after_op(self) -> str | None:
        held = self.service.cache.total_bytes
        if held > self.capacity:
            return f"cache holds {held} bytes, capacity is {self.capacity}"
        return None

    def tick_due(self, done: int) -> bool:
        return done > 0 and done % self.sizes.tick_every == 0

    def tick(self) -> None:
        self.service.clock.advance(1800.0)
        self.service.run_maintenance(replay=True)

    def invariants(self) -> list[str]:
        problems = cache_invariants(self.service)
        with warnings.catch_warnings():
            # The tail holds served admissions, whose decode positions a WAL
            # does not carry; recovery says so.  Only ids are compared here.
            warnings.simplefilter("ignore")
            recovered = Checkpointer.recover(self.directory,
                                             config=self.service.config)
        live = sorted(ex.example_id for ex in self.service.cache)
        again = sorted(ex.example_id for ex in recovered.cache)
        if live != again:
            problems.append(
                f"recovered cache ids differ from live ones "
                f"({len(again)} vs {len(live)})")
        return problems

    def layer_extras(self) -> dict[str, float]:
        files = [p for p in self.directory.iterdir()
                 if p.name != Checkpointer.WAL_NAME]
        return {"persistence.snapshot_bytes":
                float(sum(p.stat().st_size for p in files))}


class GatewayServe(ServeRepeat):
    """Loopback ``POST /serve`` through ``AsyncGateway`` on one connection.

    Client and server share this process's event loop; one ``GatewayClient``
    issues unstamped arrivals strictly in order, so the arrival order, hence
    every decision, repeats bit for bit.  All requests are re-asks against
    a small static bank, which leaves the gateway's own cost (JSON codecs,
    HTTP framing, the writer queue, session and simulator stepping, the
    deferred completion path) as the bulk of a request.
    """

    name = "gateway_serve"
    reask_share = 1.0

    async def setup(self, meter, recorder) -> None:
        self.service = self._build(meter)
        start = meter.begin()
        models = self.service.models
        self.session = GatewaySession(self.service, ClusterConfig(deployments=[
            ModelDeployment(models[self.service.small_name], replicas=2),
            ModelDeployment(models[self.service.large_name], replicas=1),
        ]))
        self.gateway = AsyncGateway(self.session)
        await self.gateway.start()
        self.client = await GatewayClient("127.0.0.1",
                                          self.gateway.port).connect()
        meter.end(start)
        self.to_payload = request_to_payload
        if recorder is not None:
            tracing.instrument(recorder, self.service, session=self.session,
                               client=self.client)
            self.to_payload = recorder.wrap(request_to_payload,
                                            "gateway.client_codec")

    async def teardown(self) -> None:
        await self.client.close()
        await self.gateway.shutdown()

    async def op(self, item):
        return await self.client.post("/serve", self.to_payload(item))

    def check(self, item, response):
        if response.status != 200:
            return [], f"{item.request_id}: HTTP {response.status}"
        record = response.payload.get("record")
        if response.payload.get("status") != "accepted" or record is None:
            return [], f"{item.request_id}: not accepted: {response.payload}"
        problem = check_decision(self.service, item.request_id,
                                 record["request_id"], record["model_name"],
                                 record["quality"])
        if problem:
            return [], problem
        return [(item.request_id, record["model_name"],
                 record["n_examples"])], None


WORKLOADS = {cls.name: cls for cls in
             (ServeRepeat, ServeBatch16, LifecycleChurn, GatewayServe)}


def check_decision(service, sent_id: str, echoed_id: str, model_name: str,
                   quality: float) -> str | None:
    if echoed_id != sent_id:
        return f"{sent_id}: reply is for {echoed_id!r}"
    if model_name not in service.models:
        return f"{sent_id}: unknown model {model_name!r}"
    if not 0.0 <= quality <= 1.0:
        return f"{sent_id}: quality {quality!r} outside [0, 1]"
    return None


def cache_invariants(service) -> list[str]:
    cache = service.cache
    problems = []
    recount = sum(example.plaintext_bytes for example in cache)
    if cache.total_bytes != recount:
        problems.append(
            f"cache.total_bytes {cache.total_bytes} != recount {recount}")
    indexed = len(tracing.index_of(cache))
    if indexed != len(cache):
        problems.append(f"index holds {indexed} keys, cache {len(cache)}")
    return problems


def recall_at_k(service, requests, k: int = 20, sample: int = 256) -> float:
    """Stage-1 ids against exact cosine over the same cache."""
    cache = service.cache
    examples = cache.examples()
    if not examples or not requests:
        return 0.0
    matrix = np.stack([example.embedding for example in examples])
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    step = max(1, len(requests) // sample)
    hits = total = 0
    for request in requests[::step][:sample]:
        query = service.embedder.embed(request.text, request.latent)
        exact = np.argsort(-(matrix @ query), kind="stable")[:k]
        truth = {examples[i].example_id for i in exact}
        found = {example.example_id for example, _ in cache.search(query, k)}
        hits += len(truth & found)
        total += len(truth)
    return hits / total
