"""Unit tests for the Example Manager and replay engine."""

import math

import numpy as np
import pytest

from repro.core import manager as manager_module
from repro.core.cache import ExampleCache
from repro.core.config import ManagerConfig
from repro.core.manager import ExampleManager
from repro.core.replay import REPLAY_MAX_ITERATIONS, ReplayEngine, replay_gain
from repro.llm.zoo import get_model
from repro.utils.clock import SimClock

from tests.conftest import make_request
from tests.ema_reference import streams
from tests.test_core_cache import make_example


def manager_with(config=None, clock=None, n_examples=0):
    cache = ExampleCache(dim=64)
    for i in range(n_examples):
        cache.add(make_example(example_id=f"ex-{i}", direction=i))
    mgr = ExampleManager(cache, config=config or ManagerConfig(sanitize=False),
                         clock=clock or SimClock())
    return mgr, cache


def served_result(model="gemma-2-27b", quality=0.8):
    llm = get_model(model)
    return llm.generate(make_request(request_id=f"gen-{quality}"))


class TestReplayGain:
    def test_formula(self):
        assert replay_gain(0.0, 1.0) == pytest.approx(1.0)
        assert replay_gain(1.0, 1.0) == pytest.approx(0.0)
        assert replay_gain(0.5, 0.5) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_gain(-0.1, 0.5)
        with pytest.raises(ValueError):
            replay_gain(0.5, 1.5)


class TestManagerConfigRefusals:
    """Settings that would fail late or silently are refused up front."""

    def test_negative_capacity_refused(self):
        # It used to admit first and raise from enforce_capacity, leaving
        # a half-applied admission behind.
        with pytest.raises(ValueError, match="capacity_bytes"):
            ManagerConfig(capacity_bytes=-1)
        ManagerConfig(capacity_bytes=0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 1.5, -1])
    def test_a_capacity_that_is_no_byte_count_is_refused_when_set(
            self, capacity):
        # Budgets are set after construction (fill, then cap at the size).
        # A NaN one failed ``total_bytes <= capacity`` and the next pass
        # evicted every example.
        with pytest.raises(ValueError, match="capacity_bytes"):
            ManagerConfig(capacity_bytes=capacity)
        mgr, cache = manager_with(n_examples=5)
        with pytest.raises(ValueError, match="capacity_bytes"):
            mgr.config.capacity_bytes = capacity
        assert mgr.config.capacity_bytes is None
        assert mgr.enforce_capacity() == 0 and len(cache) == 5
        mgr.config.capacity_bytes = np.int64(cache.total_bytes)
        assert type(mgr.config.capacity_bytes) is int


class TestAdmission:
    def test_admit_and_retrieve(self):
        mgr, cache = manager_with()
        req = make_request()
        result = served_result()
        example = mgr.admit(req, result, req.latent, source_cost=1.0)
        assert example is not None
        assert len(cache) == 1
        assert example.quality == result.quality

    def test_near_duplicate_rejected(self):
        mgr, cache = manager_with()
        req1 = make_request(request_id="a")
        req2 = make_request(request_id="b")  # same latent direction
        mgr.admit(req1, served_result(), req1.latent, source_cost=1.0)
        rejected = mgr.admit(req2, served_result(), req2.latent, source_cost=1.0)
        assert rejected is None
        assert mgr.rejected_duplicates == 1
        assert len(cache) == 1

    def test_sanitization_applied_on_admission(self):
        mgr, cache = manager_with(config=ManagerConfig(sanitize=True))
        req = make_request(text="email me at alice@example.com please")
        example = mgr.admit(req, served_result(), req.latent, source_cost=1.0)
        assert "[EMAIL]" in example.request.text


class TestBookkeeping:
    def test_record_use_updates_gains(self):
        mgr, cache = manager_with(n_examples=1)
        ex = cache.get("ex-0")
        mgr.record_use(ex, response_quality=0.3, model_cost=1.0, offloaded=True)
        assert cache.table.col("gain_ema__value")[0] == pytest.approx(0.7)
        assert cache.table.col("offload_gain__value")[0] == pytest.approx(1.0)
        assert cache.table.col("feedback_quality__value")[0] == \
            pytest.approx(0.3)

    def test_hourly_decay(self, monkeypatch):
        monkeypatch.setattr(manager_module, "DECAY_FACTOR", 0.5)
        clock = SimClock()
        mgr, cache = manager_with(clock=clock, n_examples=1)
        ex = cache.get("ex-0")
        mgr.record_use(ex, 0.0, 1.0, offloaded=True)
        assert streams(ex)["offload_gain"].value == pytest.approx(1.0)
        clock.advance(2 * 3600.0)
        mgr.record_use(cache.get("ex-0"), 0.0, 1.0, offloaded=False)
        # Two decay periods passed: 1.0 -> 0.25, then the new observation
        # mixes in via the EMA.
        assert streams(ex)["offload_gain"].value < 0.5

    def test_decay_periods_decays_advances_and_journals_once(
            self, monkeypatch):
        monkeypatch.setattr(manager_module, "DECAY_FACTOR", 0.5)
        mgr, cache = manager_with(n_examples=1)
        mgr.record_use(cache.get("ex-0"), 0.0, 1.0, offloaded=True)
        records = []
        cache.journal = lambda kind, data: records.append((kind, data))
        mgr.decay_periods(2)
        assert cache.table.col("offload_gain__value")[0] == 0.25
        assert mgr._last_decay == 2 * 3600.0
        assert records == [("decay", {"periods": 2})]

    def test_wal_redo_decays_through_the_manager(self, service,
                                                  monkeypatch):
        from repro.persistence.wal import apply_wal

        calls = []
        monkeypatch.setattr(service.manager, "decay_periods", calls.append)
        apply_wal(service, [{"kind": "decay", "data": {"periods": 3}}])
        assert calls == [3]


class TestEviction:
    def test_unbounded_never_evicts(self):
        mgr, cache = manager_with(n_examples=5)
        assert mgr.enforce_capacity() == 0
        assert len(cache) == 5

    def test_evicts_to_capacity(self):
        mgr, cache = manager_with(n_examples=6)
        per_example = cache.get("ex-0").plaintext_bytes
        mgr.config.capacity_bytes = per_example * 3
        evicted = mgr.enforce_capacity()
        assert evicted >= 3
        assert cache.total_bytes <= mgr.config.capacity_bytes

    def test_high_value_examples_survive(self):
        mgr, cache = manager_with(n_examples=6)
        keeper = cache.get("ex-2")
        for _ in range(10):
            mgr.record_use(keeper, 0.2, 1.0, offloaded=True)
            keeper.record_access()
        per_example = keeper.plaintext_bytes
        mgr.config.capacity_bytes = per_example * 2
        mgr.enforce_capacity()
        assert "ex-2" in cache

    def test_admission_triggers_eviction(self):
        mgr, cache = manager_with()
        req0 = make_request(request_id="seed", topic_latent=_unit_dir(0))
        mgr.admit(req0, served_result(), req0.latent, source_cost=1.0)
        mgr.config.capacity_bytes = cache.total_bytes  # full
        req = make_request(request_id="new", topic_latent=_unit_dir(1))
        mgr.admit(req, served_result(), req.latent, source_cost=1.0)
        assert cache.total_bytes <= mgr.config.capacity_bytes


def _unit_dir(i, dim=64):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestReplayEngine:
    def test_replay_improves_or_preserves_quality(self):
        teacher = get_model("gemma-2-27b")
        engine = ReplayEngine(teacher)
        ex = make_example(quality=0.2)
        before = ex.quality
        gain = engine.replay_one(ex)
        assert ex.quality >= before
        assert gain == pytest.approx(ex.quality - before)
        assert ex.replay_count == 1

    def test_candidates_ranked_by_gain(self):
        teacher = get_model("gemma-2-27b")
        engine = ReplayEngine(teacher)
        cache = _pool(low=0.1, high=0.9)
        ranked = engine.candidates(cache.table)
        assert [e.example_id for e in ranked] == ["high", "low"]

    def test_candidates_exclude_capped_and_unused(self):
        teacher = get_model("gemma-2-27b")
        engine = ReplayEngine(teacher)
        cache = _pool(capped=0.9, unused=None)
        cache.get("capped").replay_count = REPLAY_MAX_ITERATIONS
        assert engine.candidates(cache.table) == []

    def test_run_respects_cost_cutoff(self):
        teacher = get_model("gemma-2-27b")
        engine = ReplayEngine(teacher)
        cache = _pool(cheap=0.001)          # expected saving ~0.02 < 0.15
        outcome = engine.run(cache.table, expected_reuse=20.0)
        assert outcome.replayed == 0
        assert outcome.skipped_budget == 1

    @pytest.mark.parametrize("reuse", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_run_refuses_a_reuse_the_cut_off_cannot_use(self, reuse):
        # NaN (and inf on a zero gain: 0 * inf) made every saving compare
        # False against the cost, so the cut-off replayed everything.
        engine = ReplayEngine(get_model("gemma-2-27b"))
        cache = _pool(**{"zero-gain": 0.0})
        with pytest.raises(ValueError, match="expected_reuse"):
            engine.run(cache.table, expected_reuse=reuse)
        assert cache.get("zero-gain").replay_count == 0

    def test_run_replays_profitable_examples(self):
        teacher = get_model("gemma-2-27b")
        engine = ReplayEngine(teacher)
        cache = _pool(**{f"ex-{i}": 0.8 for i in range(4)})
        outcome = engine.run(cache.table, expected_reuse=50.0)
        assert outcome.replayed == 4
        assert list(cache.table.col("gain_ema__value")) == [0.0] * 4

    def test_manager_run_replay_requires_engine(self):
        mgr, _ = manager_with()
        with pytest.raises(RuntimeError):
            mgr.run_replay()


def _pool(**gains):
    """A cache of quality-0.3 examples, in the order given, each used once
    with the given G(e) (``None``: never used)."""
    cache = ExampleCache(dim=64)
    for i, (example_id, gain) in enumerate(gains.items()):
        example = make_example(example_id=example_id, direction=i + 1,
                               quality=0.3)
        cache.add(example)
        if gain is not None:
            example.record_use(gain, 0.5, 0.0)
    return cache
