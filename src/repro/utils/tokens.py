"""Token accounting.

The latency model charges per token (prefill per prompt token, decode per
output token), and the cache eviction knapsack weighs examples by plaintext
size.  Real deployments use model-specific BPE tokenizers; for the simulation
a whitespace tokenizer with a sub-word correction factor is sufficient because
only *counts* matter, never token identities.
"""

from __future__ import annotations

# Empirically, BPE tokenizers emit ~1.3 tokens per whitespace-separated word
# of English text; the constant only needs to be consistent across the repo.
TOKENS_PER_WORD = 1.3


def count_tokens(text: str) -> int:
    """Approximate LLM token count of ``text`` (always >= 1 for non-empty)."""
    if not text:
        return 0
    words = len(text.split())
    return max(1, int(round(words * TOKENS_PER_WORD)))

