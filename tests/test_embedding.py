"""Unit and property tests for repro.embedding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding import embedder as embedder_module
from repro.embedding.embedder import HashingEmbedder, LatentEmbedder
from repro.embedding.similarity import cosine_similarity, cosine_similarity_matrix


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite(self):
        v = np.array([1.0, -2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_rescaled_range(self):
        v = np.array([1.0, 0.0])
        assert cosine_similarity(v, -v, rescaled=True) == pytest.approx(0.0)
        assert cosine_similarity(v, v, rescaled=True) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(2), np.ones(3))

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
           st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4))
    def test_bounded(self, a, b):
        sim = cosine_similarity(np.array(a), np.array(b))
        assert -1.0 <= sim <= 1.0

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        queries = rng.normal(size=(3, 8))
        corpus = rng.normal(size=(5, 8))
        mat = cosine_similarity_matrix(queries, corpus)
        for i in range(3):
            for j in range(5):
                assert mat[i, j] == pytest.approx(
                    cosine_similarity(queries[i], corpus[j]), abs=1e-9
                )

    def test_matrix_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestLatentEmbedder:
    def test_unit_norm(self):
        emb = LatentEmbedder(dim=16)
        latent = np.random.default_rng(0).normal(size=16)
        out = emb.embed("hello", latent)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_deterministic_per_text(self):
        emb = LatentEmbedder(dim=16)
        latent = np.ones(16)
        a = emb.embed("same text", latent)
        b = emb.embed("same text", latent)
        assert np.allclose(a, b)

    def test_noise_varies_with_text(self):
        emb = LatentEmbedder(dim=16)
        latent = np.ones(16)
        a = emb.embed("text one", latent)
        b = emb.embed("text two", latent)
        assert not np.allclose(a, b)

    def test_zero_noise_recovers_latent_direction(self, monkeypatch):
        monkeypatch.setattr(embedder_module, "EMBEDDER_NOISE", 0.0)
        emb = LatentEmbedder(dim=8)
        latent = np.arange(1.0, 9.0)
        out = emb.embed("x", latent)
        assert cosine_similarity(out, latent) == pytest.approx(1.0)

    def test_wrong_latent_dim_rejected(self):
        emb = LatentEmbedder(dim=8)
        with pytest.raises(ValueError):
            emb.embed("x", np.ones(9))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("latent", [np.full(8, np.nan),
                                        np.r_[-np.inf, np.ones(7)],
                                        np.full(8, 1e200)],
                             ids=["nan", "inf", "norm-overflows"])
    def test_non_finite_latent_rejected(self, latent, noise, monkeypatch):
        """A NaN embedding used to come out (``vec / nan``) and be cached."""
        monkeypatch.setattr(embedder_module, "EMBEDDER_NOISE", noise)
        with pytest.raises(ValueError, match="latent is not finite"):
            LatentEmbedder(dim=8).embed("x", latent)

    def test_no_latent_falls_back_to_hashing(self):
        emb = LatentEmbedder(dim=16)
        out = emb.embed("fallback text")
        assert out.shape == (16,)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatentEmbedder(dim=1)


class TestHashingEmbedder:
    def test_unit_norm_and_deterministic(self):
        emb = HashingEmbedder(dim=32)
        a = emb.embed("the quick brown fox")
        b = emb.embed("the quick brown fox")
        assert np.allclose(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_similar_strings_closer_than_dissimilar(self):
        emb = HashingEmbedder(dim=64)
        base = emb.embed("how do I sort a list in python")
        near = emb.embed("how do I sort a list in python quickly")
        far = emb.embed("recipe for chocolate cake with frosting")
        assert cosine_similarity(base, near) > cosine_similarity(base, far)

    def test_instances_share_projection(self):
        a = HashingEmbedder(dim=32).embed("stable")
        b = HashingEmbedder(dim=32).embed("stable")
        assert np.allclose(a, b)

    def test_empty_string_is_well_defined(self):
        out = HashingEmbedder(dim=16).embed("")
        assert np.linalg.norm(out) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.text(min_size=0, max_size=60))
    def test_always_unit_norm(self, text):
        out = HashingEmbedder(dim=16).embed(text)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=1)
        with pytest.raises(ValueError):
            HashingEmbedder(ngram=0)
        with pytest.raises(ValueError):
            HashingEmbedder(dim=64, buckets=32)
