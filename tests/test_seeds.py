"""Seed derivation: determinism, sensitivity, and an independent mix oracle."""

import hashlib

import numpy as np

from probeforge.ingest import stream
from probeforge.seeds import derive_seed, splitmix64

MASK = (1 << 64) - 1


def _mix_oracle(x: int) -> int:
    """SplitMix64 finalizer written out step by step."""
    z = (x + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_splitmix_matches_stepwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = int(rng.integers(0, 1 << 63))
        assert splitmix64(x) == _mix_oracle(x)
    # first output of the reference sequence seeded at zero
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_derive_matches_chain_oracle():
    def fold(part):
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            return int.from_bytes(digest, "little")
        return part & MASK

    state = _mix_oracle(42)
    state = _mix_oracle(state ^ fold("rep"))
    state = _mix_oracle(state ^ fold(3))
    assert derive_seed(42, "rep", 3) == state


def test_derive_is_deterministic_and_sensitive():
    base = derive_seed(9, "train")
    assert derive_seed(9, "train") == base
    assert derive_seed(10, "train") != base
    assert derive_seed(9, "test") != base
    assert derive_seed(9, "train", 0) != base
    # argument order matters
    assert derive_seed(9, "a", "b") != derive_seed(9, "b", "a")
    # int and str parts with the same repr stay distinct
    assert derive_seed(9, 5) != derive_seed(9, "5")


def test_derive_output_is_64_bit():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = int(rng.integers(0, MASK, dtype=np.uint64, endpoint=True))
        b = int(rng.integers(0, MASK, dtype=np.uint64, endpoint=True))
        s = derive_seed(a, b)
        assert 0 <= s <= MASK


def test_stream_reproduces_draws():
    a = stream(5, "x").standard_normal(8)
    b = stream(5, "x").standard_normal(8)
    c = stream(5, "y").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
