"""Seeded random-number-generator helpers.

All stochastic components of the reproduction (workload generation, LLM
decode noise, judge noise, Thompson sampling, ...) draw from explicitly
seeded :class:`numpy.random.Generator` instances.  ``stable_hash`` gives a
platform-independent 64-bit hash used to derive per-entity sub-seeds (Python's
builtin ``hash`` is salted per process and therefore unsuitable).
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a generator from an integer seed (``None`` -> OS entropy).

    Integer seeds take ``Generator(PCG64(seed))`` directly — the same
    bit-generator state ``default_rng(seed)`` builds (PCG64 wraps the int
    in a SeedSequence itself), minus ``default_rng``'s dispatch overhead,
    which matters because hot serve paths mint several generators per
    request for per-entity determinism.
    """
    if seed is None:
        return np.random.default_rng(None)
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(rng: np.random.Generator, *labels: object) -> np.random.Generator:
    """Derive a child generator deterministically from ``rng`` and labels.

    The parent generator supplies one 64-bit word; the labels are hashed in so
    that two children spawned with different labels are independent even when
    spawned from the same parent state.
    """
    base = int(rng.integers(0, 2**63 - 1))
    return make_rng(stable_hash(base, *labels))


def stable_hash(*parts: object) -> int:
    """Platform- and process-stable 63-bit hash of the string forms of parts."""
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)
