"""Dense text embedders (the paper's T5 encoder, substituted).

The paper uses dense embeddings purely through cosine similarity between
requests (section 2.3) and between a request and cached examples (section
4.1).  Every request carries a ground-truth latent topic vector
(``Request.latent`` is required), and :class:`LatentEmbedder` "recovers" it
with encoder noise.  This preserves the similarity structure of the real
datasets (Fig. 3a) while keeping it controllable.
"""

from repro.embedding.embedder import Embedder, LatentEmbedder
from repro.embedding.similarity import cosine_similarity, cosine_similarity_matrix

__all__ = [
    "Embedder",
    "LatentEmbedder",
    "cosine_similarity",
    "cosine_similarity_matrix",
]
