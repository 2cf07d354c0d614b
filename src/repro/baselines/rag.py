"""LongRAG baseline (section 6.1, Table 2): retrieval-augmented generation.

RAG retrieves *documents* — factual text chunks — rather than historical
request-response pairs.  Documents supply factual grounding (a quality lift
that grows with relevance) but, unlike IC examples, they do not demonstrate
response composition, so the lift is smaller than knowledge transfer from a
stronger model and plateaus lower (the paper's Table 2: RAG +0.43 avg score
vs IC +0.49, combined +0.72).  Documents can also distract when off-topic,
just like random examples.

The document store is synthesized from the same topic model as the workload,
mimicking an external corpus covering the request domain.

As a ``RetrievalPolicy`` the documents ride the context-view mechanism
(:meth:`LongRAGRetriever.retrieve_batch`), and the simulator's ICL model
gates their lift by relevance and headroom.  The one documented exception
is :meth:`LongRAGRetriever.boost`: RAG's own lift — grounding that grows
with document relevance and quality, saturates below ICL's ceiling and
pays a distraction cost per off-topic document — added to a quality
*after* generation.  Table 2 and Fig. 15 keep it because their "+IC+RAG"
rows add the document lift on top of an IC-augmented generation, which the
pipeline's one context list per request cannot express without changing
both tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.selector import ScoredExample
from repro.embedding.similarity import cosine_similarity
from repro.llm.icl import ExampleView
from repro.utils.rng import make_rng, spawn_rng, stable_hash
from repro.vectorstore.flat import FlatIndex
from repro.workload.topics import TopicModel

# RAG quality model constants.
RAG_MAX_BOOST = 0.12        # factual grounding ceiling (< ICL's transfer)
RAG_SATURATION = 1.2        # documents saturate quickly
RAG_REL_GATE = 0.45         # minimum relevance for a document to help
RAG_DISTRACTION = 0.02      # per irrelevant document


@dataclass(frozen=True)
class Document:
    """One external document chunk."""

    doc_id: str
    topic_id: int
    latent: np.ndarray
    tokens: int
    quality: float   # how authoritative/clean the document is, in [0, 1]

    @property
    def example_id(self) -> str:
        return self.doc_id

    def view(self) -> ExampleView:
        return ExampleView(latent=self.latent, quality=self.quality,
                           tokens=self.tokens)


def build_document_store(topics: TopicModel, docs_per_topic: int = 3,
                         seed: int = 0) -> tuple[list[Document], FlatIndex]:
    """Synthesize a document corpus over the workload's topics."""
    if docs_per_topic < 1:
        raise ValueError(f"docs_per_topic must be >= 1: {docs_per_topic}")
    rng = make_rng(stable_hash("rag-docs", seed))
    documents = []
    index = FlatIndex(topics.dim)
    for topic_id in range(topics.n_topics):
        for j in range(docs_per_topic):
            doc_rng = spawn_rng(rng, topic_id, j)
            latent = topics.sample_latent(topic_id, doc_rng)
            doc = Document(
                doc_id=f"doc-{topic_id}-{j}",
                topic_id=topic_id,
                latent=latent,
                tokens=int(doc_rng.integers(120, 600)),
                quality=float(doc_rng.uniform(0.5, 0.95)),
            )
            documents.append(doc)
            index.add(doc.doc_id, latent)
    return documents, index


class LongRAGRetriever:
    """Top-k document retrieval (a ``RetrievalPolicy``) plus the boost."""

    def __init__(self, documents: list[Document], index: FlatIndex,
                 top_k: int = 5) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1: {top_k}")
        self._documents = {d.doc_id: d for d in documents}
        self._index = index
        self.top_k = top_k

    def retrieve_batch(self, contexts) -> list[list[ScoredExample]]:
        """Each request's top-k documents as its context; relevance is the
        latent cosine similarity :meth:`boost` gates on."""
        latents = [ctx.request.latent for ctx in contexts]
        return [[ScoredExample(example=doc,
                               relevance=cosine_similarity(latent, doc.latent),
                               utility=doc.quality)
                 for doc in (self._documents[h.key] for h in hits)]
                for latent, hits in zip(latents, self._index.search_batch(
                    latents, self.top_k))]

    def boost(self, combo: list[ScoredExample]) -> float:
        """Quality delta from appending one request's retrieved documents."""
        grounding = 0.0
        distraction = 0.0
        for scored in combo:
            if scored.relevance < RAG_REL_GATE:
                distraction += RAG_DISTRACTION
            else:
                grounding += (scored.relevance - RAG_REL_GATE) * scored.utility
        gain = RAG_MAX_BOOST * (1.0 - np.exp(-grounding / RAG_SATURATION))
        return float(gain - distraction)
