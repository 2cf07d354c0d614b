"""Unit tests for the simulated LLM substrate (quality, ICL, model, zoo)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.llm.icl import (
    DISTRACT_GATE,
    ExampleView,
    ICLBoostModel,
    REL_GATE,
    example_utility,
)
from repro.llm.model import ModelSpec
from repro.llm.quality import QualityModel
from repro.llm.zoo import MODEL_PAIRS, MODEL_SPECS, get_model, get_model_pair
from repro.utils.rng import make_rng, spawn_rng, stable_hash

from tests.conftest import make_request


def view_for(latent, quality=0.8, tokens=60):
    return ExampleView(latent=np.asarray(latent, dtype=float), quality=quality,
                       tokens=tokens)


class TestQualityModel:
    def test_base_quality_monotone_in_capability(self):
        qm = QualityModel()
        assert qm.base_quality(0.8, 0.5) > qm.base_quality(0.6, 0.5)

    def test_base_quality_monotone_in_difficulty(self):
        qm = QualityModel()
        assert qm.base_quality(0.7, 0.2) > qm.base_quality(0.7, 0.8)

    def test_capability_gap_widens_with_difficulty(self):
        # The Fig. 1 effect: big models pull ahead on hard requests.
        qm = QualityModel()
        gap_easy = qm.base_quality(0.8, 0.1) - qm.base_quality(0.6, 0.1)
        gap_hard = qm.base_quality(0.8, 0.9) - qm.base_quality(0.6, 0.9)
        assert gap_hard > gap_easy

    def test_bounds(self):
        qm = QualityModel()
        assert 0.0 <= qm.base_quality(0.5, 1.0) <= 1.0
        assert 0.0 <= qm.base_quality(1.0, 0.0) <= 1.0

    def test_invalid_inputs(self):
        qm = QualityModel()
        with pytest.raises(ValueError):
            qm.base_quality(0.0, 0.5)
        with pytest.raises(ValueError):
            qm.base_quality(0.5, 1.5)
        with pytest.raises(ValueError):
            QualityModel(penalty_ceiling=0.9)

    def test_sample_quality_clipped(self):
        qm = QualityModel(noise_std=0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 0.0 <= qm.sample_quality(0.5, 0.3, rng) <= 1.0

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0, max_value=1))
    def test_base_always_in_unit_interval(self, cap, diff):
        assert 0.0 <= QualityModel().base_quality(cap, diff) <= 1.0


class TestExampleUtility:
    def test_relevant_better_example_helps(self):
        latent = np.zeros(8); latent[0] = 1.0
        utility = example_utility(latent, view_for(latent, quality=0.9), 0.4)
        assert utility > 0.3

    def test_no_headroom_no_help(self):
        latent = np.zeros(8); latent[0] = 1.0
        utility = example_utility(latent, view_for(latent, quality=0.3), 0.4)
        assert utility == 0.0

    def test_irrelevant_example_distracts(self):
        a = np.zeros(8); a[0] = 1.0
        b = np.zeros(8); b[1] = 1.0  # orthogonal -> below the distract gate
        assert example_utility(a, view_for(b, quality=0.9), 0.4) < 0.0

    def test_mid_relevance_is_neutral(self):
        a = np.zeros(8); a[0] = 1.0
        mid = np.zeros(8)
        mid[0] = DISTRACT_GATE + 0.05
        mid[1] = np.sqrt(1 - mid[0] ** 2)
        utility = example_utility(a, view_for(mid, quality=0.9), 0.4)
        assert utility == pytest.approx(0.0, abs=1e-6)

    def test_utility_monotone_in_relevance_above_gate(self):
        a = np.zeros(8); a[0] = 1.0
        utilities = []
        for rel in (REL_GATE + 0.05, 0.8, 0.95):
            v = np.zeros(8)
            v[0] = rel
            v[1] = np.sqrt(1 - rel * rel)
            utilities.append(example_utility(a, view_for(v, quality=0.9), 0.4))
        assert utilities == sorted(utilities)


class TestICLBoostModel:
    def setup_method(self):
        self.latent = np.zeros(8)
        self.latent[0] = 1.0
        self.model = ICLBoostModel()

    def test_no_examples_no_boost(self):
        assert self.model.boost(self.latent, [], 0.4) == 0.0

    def test_good_examples_boost(self):
        examples = [view_for(self.latent, quality=0.8) for _ in range(3)]
        assert self.model.boost(self.latent, examples, 0.4) > 0.1

    def test_random_examples_hurt(self):
        # The Fig. 4(a) effect: random examples degrade quality.
        rng = np.random.default_rng(0)
        randoms = []
        for _ in range(5):
            v = rng.normal(size=8)
            v[0] = 0.0  # orthogonal to the request
            randoms.append(view_for(v / np.linalg.norm(v), quality=0.9))
        assert self.model.boost(self.latent, randoms, 0.4) < 0.0

    def test_diminishing_returns(self):
        def gain(n):
            examples = [view_for(self.latent, quality=0.8)] * n
            return self.model.boost(self.latent, examples, 0.3)

        first = gain(1)
        marginal_fifth = gain(5) - gain(4)
        assert first > marginal_fifth >= 0.0

    def test_boost_capped_near_teacher(self):
        examples = [view_for(self.latent, quality=0.6)] * 10
        boost = self.model.boost(self.latent, examples, 0.3)
        assert 0.3 + boost <= 0.6 + 0.05  # cannot leapfrog the teacher

    def test_weak_teacher_no_gain(self):
        examples = [view_for(self.latent, quality=0.2)] * 5
        assert self.model.boost(self.latent, examples, 0.5) == pytest.approx(0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ICLBoostModel(max_boost=-0.1)
        with pytest.raises(ValueError):
            ICLBoostModel(saturation=0.0)


class TestModelSpec:
    def test_latency_model(self):
        spec = MODEL_SPECS["gemma-2-2b"]
        assert spec.ttft(0) == pytest.approx(spec.ttft_base_s)
        assert spec.ttft(1000) > spec.ttft(100)
        assert spec.decode_time(100) == pytest.approx(100 * spec.tbt_s)
        assert spec.service_time(50, 100) == pytest.approx(
            spec.ttft(50) + spec.decode_time(100)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", family="x", params_b=1, capability=1.5,
                      gpus_per_replica=1, ttft_base_s=0.1,
                      prefill_s_per_token=1e-4, tbt_s=0.01,
                      cost_per_1k_tokens=0.1)
        with pytest.raises(ValueError):
            ModelSpec(name="bad", family="x", params_b=1, capability=0.5,
                      gpus_per_replica=0, ttft_base_s=0.1,
                      prefill_s_per_token=1e-4, tbt_s=0.01,
                      cost_per_1k_tokens=0.1)


class TestSimulatedLLM:
    def test_generation_fields(self):
        model = get_model("gemma-2-2b")
        result = model.generate(make_request())
        assert result.model_name == "gemma-2-2b"
        assert 0.0 <= result.quality <= 1.0
        assert result.output_tokens >= 2
        assert result.ttft_s > 0
        assert result.total_s == pytest.approx(result.ttft_s + result.decode_s)
        assert result.cost > 0

    def test_repeated_generations_differ_but_replay_deterministically(self):
        req = make_request()
        model_a = get_model("gemma-2-2b")
        model_b = get_model("gemma-2-2b")
        q1 = [model_a.generate(req).quality for _ in range(3)]
        q2 = [model_b.generate(req).quality for _ in range(3)]
        assert q1 == q2           # full replay determinism across instances
        assert len(set(q1)) > 1   # decode variance across repeated calls

    def test_aptitude_is_per_request_stable(self):
        model = get_model("gemma-2-2b")
        req = make_request()
        assert model.base_quality(req) == model.base_quality(req)

    def test_aptitude_varies_across_requests(self):
        model = get_model("gemma-2-2b")
        values = {
            round(model.base_quality(make_request(request_id=f"r{i}")), 6)
            for i in range(20)
        }
        assert len(values) > 10

    def test_examples_lengthen_prompt_and_raise_ttft(self):
        model = get_model("gemma-2-2b")
        req = make_request()
        plain = model.generate(req)
        examples = [view_for(req.latent, quality=0.9, tokens=200)] * 5
        augmented = model.generate(req, examples)
        assert augmented.prompt_tokens > plain.prompt_tokens
        assert augmented.ttft_s > plain.ttft_s

    def test_context_window_caps_prompt(self):
        model = get_model("phi-3-mini")  # 4096-token window
        req = make_request()
        examples = [view_for(req.latent, quality=0.9, tokens=2000)] * 5
        result = model.generate(req, examples)
        assert result.prompt_tokens <= model.spec.max_context_tokens

    def test_good_examples_raise_quality_on_hard_requests(self):
        model = get_model("gemma-2-2b")
        req = make_request(difficulty=0.8)
        examples = [view_for(req.latent, quality=0.9)] * 5
        plain = np.mean([model.generate(req).quality for _ in range(10)])
        boosted = np.mean([model.generate(req, examples).quality for _ in range(10)])
        assert boosted > plain + 0.1


class TestDecodeStreams:
    """``generate`` memoizes the per-(model, request) word its decode
    streams derive from; the generator it draws from stays the one
    ``spawn_rng(make_rng(stable_hash("gen", model, request)), "decode",
    count)`` builds — whether the word came from the memo, from a memo that
    was cleared in between, or from the empty memo of a restored service."""

    @staticmethod
    def _recorded(model) -> list[dict]:
        """States of the generators ``model.generate`` hands on, at the
        moment they are handed on (nothing drawn yet)."""
        states: list[dict] = []
        sample = model.quality_model.sample_quality

        def recording(base, boost, rng):
            states.append(rng.bit_generator.state)
            return sample(base, boost, rng)

        model.quality_model.sample_quality = recording
        return states

    @staticmethod
    def _assert_stream(state: dict, model_name: str, request_id: str,
                       count: int) -> None:
        reference = spawn_rng(
            make_rng(stable_hash("gen", model_name, request_id)),
            "decode", count)
        assert state == reference.bit_generator.state, (request_id, count)
        drawn = make_rng(0)
        drawn.bit_generator.state = state
        assert drawn.normal() == reference.normal()
        assert drawn.lognormal(0.0, 0.08) == reference.lognormal(0.0, 0.08)

    def test_a_thousand_triples_draw_from_the_spawned_generator(self):
        triples = 0
        for name in ("gemma-2-2b", "gemma-2-27b"):
            model = get_model(name)
            states = self._recorded(model)
            requests = [make_request(request_id=f"stream-{i}")
                        for i in range(100)]
            for count in range(5):          # request-major within a count:
                for request in requests:    # every later count is a memo hit
                    model.generate(request)
                    self._assert_stream(states[-1], name,
                                        request.request_id, count)
                    triples += 1
            assert len(model._decode_seed_memo) == 100
        assert triples == 1000

    def test_equality_holds_across_the_memo_clear(self):
        model = get_model("gemma-2-2b")
        states = self._recorded(model)
        first = make_request(request_id="before-the-clear")
        model.generate(first)
        word = model._decode_seed_memo[first.request_id]
        for i in range(8192):                # the bound: the 8193rd clears
            model.generate(make_request(request_id=f"fill-{i}"))
        assert first.request_id not in model._decode_seed_memo
        assert len(model._decode_seed_memo) <= 8192
        model.generate(first)
        assert model._decode_seed_memo[first.request_id] == word
        self._assert_stream(states[0], model.name, first.request_id, 0)
        self._assert_stream(states[-1], model.name, first.request_id, 1)
        self._assert_stream(states[4097], model.name, "fill-4096", 0)

    def test_a_restored_service_resumes_every_stream(self, tmp_path,
                                                     service,
                                                     small_dataset):
        """The memo is no snapshot state: a snapshot taken with it full is
        byte for byte the one taken with it empty, and the restored
        service (empty memo, restored decode counts) draws from the same
        generators the live one does."""
        from repro.persistence.snapshot import (
            load_snapshot,
            restore_service,
            write_snapshot,
        )

        service.seed_cache(small_dataset.example_bank_requests()[:30])
        requests = small_dataset.online_requests(12)
        for request in requests:
            service.serve(request, load=0.2)
        full = write_snapshot(service, tmp_path / "full" / "snap.json")
        assert any(m._decode_seed_memo for m in service.models.values())
        for model in service.models.values():
            model._decode_seed_memo.clear()
        empty = write_snapshot(service, tmp_path / "empty" / "snap.json")
        for a, b in zip(sorted(full.parent.iterdir()),
                        sorted(empty.parent.iterdir()), strict=True):
            assert a.name == b.name and a.read_bytes() == b.read_bytes()

        restored = restore_service(load_snapshot(full),
                                   config=service.config)
        for name, model in restored.models.items():
            assert not model._decode_seed_memo
            states = self._recorded(model)
            live = service.models[name]
            for request in requests:
                count = model.decode_count(request.request_id)
                assert count == live.decode_count(request.request_id)
                assert model.generate(request).quality == \
                    live.generate(request).quality
                self._assert_stream(states[-1], name, request.request_id,
                                    count)


class TestZoo:
    def test_all_pairs_resolvable(self):
        for family in MODEL_PAIRS:
            small, large = get_model_pair(family)
            assert small.spec.capability < large.spec.capability
            assert small.spec.cost_per_1k_tokens < large.spec.cost_per_1k_tokens

    def test_fig1_latency_shapes(self):
        # Qwen-7B vs DeepSeek-R1: orders-of-magnitude TTFT/TBT gap (Fig. 1b).
        qwen = MODEL_SPECS["qwen2.5-7b"]
        r1 = MODEL_SPECS["deepseek-r1"]
        assert r1.ttft(100) / qwen.ttft(100) > 50
        assert r1.tbt_s / qwen.tbt_s > 15
        assert r1.gpus_per_replica == 16
        assert qwen.gpus_per_replica == 1

    def test_gemma_zero_load_gap(self):
        # Fig. 18: 27B roughly 3.4x slower than 2B at zero load.
        small = MODEL_SPECS["gemma-2-2b"]
        large = MODEL_SPECS["gemma-2-27b"]
        ratio = large.service_time(60, 220) / small.service_time(60, 220)
        assert 2.5 <= ratio <= 5.0

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")
        with pytest.raises(KeyError):
            get_model_pair("mistral")
