"""Deterministic derivation of independent 64-bit RNG seeds.

Every randomized component owns a private RNG stream whose seed is derived
from a base seed plus a sequence of purpose tags (strings) and indices
(integers). Derivation is a SplitMix64 finalizer chained over the folded
parts, so streams for different purposes never collide by accident and the
result is identical on every platform: strings are folded through blake2b
instead of the process-randomized built-in ``hash``.

This module imports only the standard library, so that ``schema`` can
derive a spec's seed without numpy; keep it that way. The numpy generator
built on a derived seed is ``ingest.stream``.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One SplitMix64 finalizer step (constant-multiply-xor mix)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    return int(part) & _MASK64


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a sub-seed from ``base`` and a list of tags/indices.

    ``derive_seed(s)`` already differs from ``s``, so derived streams never
    alias the stream seeded directly with the base value.
    """
    state = splitmix64(int(base) & _MASK64)
    for part in parts:
        state = splitmix64(state ^ _fold(part))
    return state

