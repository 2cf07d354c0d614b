"""Unit and property tests for repro.embedding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.embedding import embedder as embedder_module
from repro.embedding.embedder import LatentEmbedder
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

    def test_a_missing_latent_is_refused(self):
        # Every request carries its latent; there is no text-only path.
        with pytest.raises(ValueError, match="latent dim"):
            LatentEmbedder(dim=16).embed("free text", None)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatentEmbedder(dim=1)

