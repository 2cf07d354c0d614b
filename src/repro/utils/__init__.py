"""Shared low-level utilities: seeded RNG discipline, simulation clock, tokens.

Everything in the reproduction is deterministic given a seed.  Components
never touch global RNG state; they receive a :class:`numpy.random.Generator`
(or derive child generators via :func:`spawn_rng`) so experiments can be
replayed bit-for-bit.
"""

from repro.utils.rng import make_rng, spawn_rng, stable_hash
from repro.utils.clock import SimClock
from repro.utils.tokens import count_tokens

__all__ = [
    "make_rng",
    "spawn_rng",
    "stable_hash",
    "SimClock",
    "count_tokens",
]
