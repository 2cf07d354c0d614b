"""Pattern-based PII sanitizer (spaCy NER, substituted).

The Example Manager runs this on both request and response text before
admission.  Patterns cover the structured identifier classes a production
scrubber must catch; each match is replaced with a typed placeholder so the
example remains useful as an in-context demonstration.
"""

from __future__ import annotations

import re

# Order matters: more specific patterns (credit card, SSN) run before the
# generic number-ish ones would otherwise swallow them.  Beside each pattern
# sits what any match of it must contain — so many ``@``, so many decimal
# digits (``\d``) — counted once per text: placeholders hold neither, so a
# count taken before the first substitution stays an upper bound, and a
# pattern the text cannot match is never run (``tests/sanitizer_reference.py``
# runs all six; same output).
PII_PATTERNS: list[tuple[str, re.Pattern, int, int]] = [
    ("EMAIL", re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.-]+\b"), 1, 0),
    ("CREDIT_CARD", re.compile(r"\b(?:\d[ -]?){13,16}\b"), 0, 13),
    ("SSN", re.compile(r"\b\d{3}-\d{2}-\d{4}\b"), 0, 9),
    # A leading \b would fail before "(" (both sides non-word chars), so the
    # left edge uses a negative lookbehind instead.
    ("PHONE", re.compile(
        r"(?<!\w)(?:\+?\d{1,3}[ .-]?)?(?:\(\d{3}\)|\d{3})[ .-]?\d{3}[ .-]?\d{4}\b"
    ), 0, 10),
    ("IP_ADDRESS", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b"), 0, 4),
    ("URL_CREDENTIAL", re.compile(r"://[^/\s:@]+:[^/\s:@]+@"), 1, 0),
]
_NON_DIGITS = re.compile(r"\D+")


def sanitize_text(text: str) -> str:
    """Replace recognized PII spans with typed placeholders."""
    ats = "@" in text
    digits = len(_NON_DIGITS.sub("", text))
    for label, pattern, min_ats, min_digits in PII_PATTERNS:
        if ats >= min_ats and digits >= min_digits:
            text = pattern.sub(f"[{label}]", text)
    return text
