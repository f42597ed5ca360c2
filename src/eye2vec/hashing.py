"""Deterministic 64-bit hashing and seeded random streams.

Everything here is exact integer arithmetic modulo 2**64 (Python integers
masked, or ``np.uint64`` arrays that wrap), so results are identical across
runs and platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def fnv1a64(data: bytes | str) -> int:
    """FNV-1a over ``data`` (strings are hashed as their UTF-8 bytes)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h, prime, mask = FNV_OFFSET_BASIS, FNV_PRIME, _MASK64
    for b in data:
        h = ((h ^ b) * prime) & mask
    return h


class SplitMix64:
    """The splitmix64 generator.

    Each step advances the state by the golden-ratio increment and mixes it:

        z = (state += _GAMMA)
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        z = z ^ (z >> 31)
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float01(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / 2.0**53

    def randint(self, n: int) -> int:
        """Uniform-ish integer in [0, n). n must be positive."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def randint_symmetric(self, radius: int) -> int:
        """Uniform integer in [-radius, +radius]."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if radius == 0:
            return 0
        return self.randint(2 * radius + 1) - radius

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def splitmix64_block(seed: int, n: int) -> np.ndarray:
    """The first ``n`` outputs of ``SplitMix64(seed)`` as a ``np.uint64`` array.

    State ``i`` is ``seed + (i + 1) * _GAMMA``, so the whole stream is mixed
    at once. Only array arithmetic is used: it wraps modulo 2**64 like the
    class's masks, where ``np.uint64`` scalars would warn on overflow.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z
