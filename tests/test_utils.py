"""Unit tests for repro.utils (rng, clock, tokens)."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.clock import SimClock
from repro.utils.rng import make_rng, spawn_rng, stable_hash
from repro.utils.tokens import TOKENS_PER_WORD, count_tokens, truncate_tokens


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_distinct_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash("a", "b") != stable_hash("ab")

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_range_is_63_bits(self):
        for value in ("x", 0, None, 3.14):
            h = stable_hash(value)
            assert 0 <= h < 2**63

    @given(st.lists(st.text(max_size=20), min_size=1, max_size=4))
    def test_always_in_range(self, parts):
        assert 0 <= stable_hash(*parts) < 2**63


class TestRng:
    def test_make_rng_reproducible(self):
        a = make_rng(42).integers(0, 1_000_000, size=5)
        b = make_rng(42).integers(0, 1_000_000, size=5)
        assert (a == b).all()

    def test_spawn_rng_deterministic_with_labels(self):
        child1 = spawn_rng(make_rng(7), "selector")
        child2 = spawn_rng(make_rng(7), "selector")
        assert child1.integers(0, 10**9) == child2.integers(0, 10**9)

    def test_spawn_rng_labels_independent(self):
        parent = make_rng(7)
        state = parent.bit_generator.state
        a = spawn_rng(parent, "x")
        parent.bit_generator.state = state
        b = spawn_rng(parent, "y")
        assert a.integers(0, 10**12) != b.integers(0, 10**12)

    def test_spawned_child_is_the_default_rng_of_its_mixed_seed(self):
        """``spawn_rng`` mints through ``make_rng`` (``Generator(PCG64(s))``),
        not ``default_rng(s)``: the same PCG64 state, so every decode stream
        — first draws of each kind, and the full state dict — is unchanged."""
        import numpy as np

        for seed in range(1_000):
            parent = make_rng(seed)
            state = parent.bit_generator.state
            child = spawn_rng(parent, "decode", seed)
            parent.bit_generator.state = state
            base = int(parent.integers(0, 2**63 - 1))
            old = np.random.default_rng(stable_hash(base, "decode", seed))
            assert child.bit_generator.state == old.bit_generator.state
            assert child.random() == old.random()
            assert child.normal() == old.normal()
            assert child.integers(0, 2**63 - 1) == old.integers(0, 2**63 - 1)
            # and the parent was advanced by exactly the one word
            assert parent.bit_generator.state != state


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == pytest.approx(4.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_is_monotonic(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)   # no-op: already past
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_reset(self):
        clock = SimClock(5.0)
        clock.reset()
        assert clock.now == 0.0


class TestTokens:
    def test_empty_text(self):
        assert count_tokens("") == 0

    def test_single_word_at_least_one(self):
        assert count_tokens("hi") >= 1

    def test_scales_with_words(self):
        short = count_tokens("one two three")
        long = count_tokens(" ".join(["word"] * 100))
        assert long > short
        assert long == pytest.approx(100 * TOKENS_PER_WORD, rel=0.05)

    def test_truncate_noop_when_within_budget(self):
        text = "a b c"
        assert truncate_tokens(text, 100) == text

    def test_truncate_respects_budget(self):
        text = " ".join(["word"] * 200)
        truncated = truncate_tokens(text, 50)
        assert count_tokens(truncated) <= 50

    def test_truncate_zero_budget(self):
        assert truncate_tokens("anything here", 0) == ""

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=400))
    def test_truncate_always_fits(self, budget, n_words):
        text = " ".join(["tok"] * n_words)
        assert count_tokens(truncate_tokens(text, budget)) <= budget
