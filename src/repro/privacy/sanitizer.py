"""Pattern-based PII sanitizer (spaCy NER, substituted).

The Example Manager runs this on both request and response text before
admission.  Patterns cover the structured identifier classes a production
scrubber must catch; each match is replaced with a typed placeholder so the
example remains useful as an in-context demonstration.
"""

from __future__ import annotations

import re

#: The characters a pattern below may require, beside decimal digits.
_MARKS = "@.-:/"

# Order matters: more specific patterns (credit card, SSN) run before the
# generic number-ish ones would otherwise swallow them.  Beside each pattern
# sits what any match of it must contain — so many decimal digits (``\d``),
# then of each of :data:`_MARKS` — counted once per text: placeholders hold
# none of them, so the counts stay upper bounds, and a pattern the text
# cannot match is never run (``tests/sanitizer_reference.py`` runs all six;
# same output).
PII_PATTERNS: list[tuple[str, re.Pattern, tuple[int, ...]]] = [
    ("EMAIL", re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.-]+\b"), (0, 1, 1, 0, 0, 0)),
    ("CREDIT_CARD", re.compile(r"\b(?:\d[ -]?){13,16}\b"), (13, 0, 0, 0, 0, 0)),
    ("SSN", re.compile(r"\b\d{3}-\d{2}-\d{4}\b"), (9, 0, 0, 2, 0, 0)),
    # A leading \b would fail before "(" (both sides non-word chars), so the
    # left edge uses a negative lookbehind instead.
    ("PHONE", re.compile(
        r"(?<!\w)(?:\+?\d{1,3}[ .-]?)?(?:\(\d{3}\)|\d{3})[ .-]?\d{3}[ .-]?\d{4}\b"
    ), (10, 0, 0, 0, 0, 0)),
    ("IP_ADDRESS", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b"),
     (4, 0, 3, 0, 0, 0)),
    ("URL_CREDENTIAL", re.compile(r"://[^/\s:@]+:[^/\s:@]+@"),
     (0, 1, 0, 0, 2, 2)),
]
_NON_DIGITS = re.compile(r"\D+")


def sanitize_text(text: str) -> str:
    """Replace recognized PII spans with typed placeholders."""
    if text.isascii():      # \d is [0-9]: drop them from the bytes
        raw = text.encode("ascii")
        digits = len(raw) - len(raw.translate(None, b"0123456789"))
    else:
        digits = len(_NON_DIGITS.sub("", text))
    ats, dots, dashes, colons, slashes = map(text.count, _MARKS)
    for label, pattern, (d, a, p, h, c, s) in PII_PATTERNS:
        if digits >= d and ats >= a and dots >= p and dashes >= h \
                and colons >= c and slashes >= s:
            text = pattern.sub(f"[{label}]", text)
    return text
