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
from numpy.random.bit_generator import ISeedSequence


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a generator from an integer seed (``None`` -> OS entropy).

    Integer seeds take ``Generator(PCG64(seed))`` directly — the same
    bit-generator state ``default_rng(seed)`` builds (PCG64 wraps the int
    in a SeedSequence itself), minus ``default_rng``'s dispatch overhead,
    which matters because hot serve paths mint several generators per
    request for per-entity determinism.  A seed is an int >= 0 (numpy
    refuses a negative one); :func:`seed_words` takes those below 2**64.
    """
    if seed is None:
        return np.random.default_rng(None)
    return np.random.Generator(np.random.PCG64(seed))


# numpy's SeedSequence (NEP 19 freezes it) steps its hash constants alike
# for every seed.  Hashmix k xors _A[k], multiplies by _A[k + 1]: 0-3 fill the
# pool, round src mixes pool[src] into each other word (key 0 on its own row,
# which is restored), and output word j does the same with _B[j], _B[j + 1].
_A, _B = (np.array([c * pow(m, i, 2**32) % 2**32 for i in range(n)], np.uint32)
          for c, m, n in ((0x43B0D7E5, 0x931E8875, 17),
                          (0x8B51F9DD, 0x58F38DED, 9)))
_KEYS = np.array([0, 1, 2, 3] + [0 if d == s else 4 + 3 * s + d - (d > s)
                                 for s in range(4) for d in range(4)])
_CONSTANTS = np.concatenate([_A[_KEYS], _A[_KEYS + 1], _B[:8], _B[1:]])[:, None]
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32)
                          for c in (0xCA01F9DD, 0x4973F715, 16))


def seed_words(seeds) -> np.ndarray:
    """Row ``i`` is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``,
    for seeds in ``[0, 2**64)``: one vectorized pass, its four pool words
    the rows of a ``(4, n)`` array, ~60 numpy calls whatever ``n`` is."""
    seeds = list(seeds)
    bad = [s for s in seeds if not 0 <= s < 2**64]
    if bad:
        raise ValueError(f"seed {bad[0]} is outside [0, 2**64)")
    if not seeds:
        return np.empty((0, 4), np.uint64)
    k = np.repeat(_CONSTANTS, len(seeds), axis=1)
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[:2] = np.array(seeds, "<u8").view("<u4").reshape(-1, 2).T
    pool = (pool ^ k[0:4]) * k[20:24]
    pool ^= pool >> _SHIFT
    for src in range(4):
        mixed = (k[4 + 4 * src:8 + 4 * src] ^ pool[src]) \
            * k[24 + 4 * src:28 + 4 * src]
        mixed = _MIX_L * pool - _MIX_R * (mixed ^ mixed >> _SHIFT)
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ k[40:48]) * k[48:56]
    out ^= out >> _SHIFT
    return np.ascontiguousarray(out.T, "<u4").view("<u8").astype(np.uint64,
                                                                copy=False)


#: A batch of at least this many requests seeds its generators in passes;
#: a smaller one mints per call, which costs it less (docs/PERFORMANCE.md).
#: Callers test ``batch[SEED_AHEAD_FROM - 1:]``: a slice issues no call, so
#: a batch of one issues exactly the calls it did before seeding existed.
SEED_AHEAD_FROM = 5


class _Words(ISeedSequence):
    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    """The generator ``make_rng(seed)`` builds, from seed's words (PCG64
    takes them from a stand-in for the SeedSequence it would hash)."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


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
        "\x1f".join(map(str, parts)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)
