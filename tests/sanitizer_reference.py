"""The six-pass sanitizer, kept as the guarded one's oracle.

Before ``PII_PATTERNS`` carried what a match must contain,
``sanitize_text`` ran every pattern over every text.  This is that loop:
``repro.privacy.sanitizer.sanitize_text`` must return the same string, byte
for byte, on any input (``tests/test_privacy.py``).
"""

from __future__ import annotations

from repro.privacy.sanitizer import PII_PATTERNS


def reference_sanitize_text(text: str) -> str:
    cleaned = text
    for label, pattern, *_ in PII_PATTERNS:
        cleaned = pattern.sub(f"[{label}]", cleaned)
    return cleaned
