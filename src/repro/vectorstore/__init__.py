"""Similarity-search indexes (GPU FAISS, substituted — paper section 5).

* :class:`FlatIndex` — exact cosine top-k by brute force, and the one
  swap-delete vector store here: the right choice for small pools, and
  every IVF cluster block.
* :class:`KMeans` — Lloyd's algorithm with k-means++ seeding.
* :class:`IVFIndex` — inverted-file index: cluster the pool into K groups
  offline, search the ``nprobe`` nearest clusters online.  Section 4.1
  derives the matching-cost-minimizing K = sqrt(N), which is the default.
  Posting lists are contiguous cluster-major blocks (FAISS-style), each a
  ``FlatIndex`` and the only copy of its vectors, so a single-query probe
  is one matrix-vector product and removal is an O(1) swap-delete — see
  ``docs/PERFORMANCE.md``.

All indexes expose both ``search`` (one query, vectorized per probed
cluster block) and ``search_batch`` (the same blocks multiplied once per
querying subset for a whole micro-batch).
"""

from repro.vectorstore.flat import FlatIndex, SearchResult
from repro.vectorstore.kmeans import KMeans, KMeansResult
from repro.vectorstore.ivf import IVFIndex, optimal_cluster_count

__all__ = [
    "FlatIndex",
    "SearchResult",
    "KMeans",
    "KMeansResult",
    "IVFIndex",
    "optimal_cluster_count",
]
