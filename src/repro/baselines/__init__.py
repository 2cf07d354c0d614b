"""The baselines of section 6.1 and the comparison systems of section 6.4.

Each serving system is one class implementing the stage protocols of
:mod:`repro.pipeline.protocols` it serves; the builders in
:mod:`repro.pipeline.policies` plug the semantic cache and RouteLLM into a
pipeline unwrapped.

* :class:`RouteLLMRouter` — RouteLLM: a binary difficulty classifier that
  picks small vs large per request, oblivious to serving load (routing).
* :class:`SemanticCache` — GPTCache/Databricks-style semantic caching:
  return the cached response verbatim when a sufficiently similar request
  was seen before (retrieval, routing and admission).
* :class:`LongRAGRetriever` — LongRAG: retrieve top-k external documents and
  append them to the prompt (retrieval).
* :class:`SFTModel` — supervised fine-tuning of the small model on large-model
  outputs: capability boost in-domain, regression out-of-domain (Table 3).

Fig. 19 draws its random-retention baseline inside the benchmark.
"""

from repro.baselines.routellm import RouteLLMRouter
from repro.baselines.semantic_cache import SemanticCache
from repro.baselines.rag import Document, LongRAGRetriever, build_document_store
from repro.baselines.sft import SFTModel

__all__ = [
    "RouteLLMRouter",
    "SemanticCache",
    "Document",
    "LongRAGRetriever",
    "build_document_store",
    "SFTModel",
]
