"""Similarity-search indexes (GPU FAISS, substituted — paper section 5).

* :class:`FlatIndex` — exact cosine top-k by brute force, and the one
  swap-delete vector store here: the right choice for small pools, and
  every IVF cluster block.
* :class:`KMeans` — Lloyd's algorithm with k-means++ seeding.
* :class:`IVFIndex` — inverted-file index: cluster the pool into K groups
  offline, search the ``nprobe`` nearest clusters online.  Section 4.1
  derives the matching-cost-minimizing K = sqrt(N), which is the default.
  Posting lists are contiguous cluster-major blocks (FAISS-style), each a
  ``FlatIndex`` and the only copy of its vectors, so a query scores a
  probed block in one vectorized pass and removal is an O(1) swap-delete —
  see ``docs/PERFORMANCE.md``.

Both score through one kernel, ``search_batch``; a lone query is a batch of
one (``IVFIndex.search``, which also answers the dedupe probe).
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
