"""Reproducible random source.

The generator is SplitMix64 (Steele, Lea, Vigna): a 64-bit counter-based
mixer with fixed constants.  It is pinned here, independent of Python's
own PRNG, so that seeded corpora are byte-identical across platforms and
releases.  Floats are drawn as the top 53 bits scaled by 2**-53.

Each draw first adds GAMMA to the state, so j draws after seeding with s
the state is s + j * GAMMA mod 2**64: SplitMix64(s + j * GAMMA) continues
the stream of SplitMix64(s) from its draw j on, without drawing the first
j values.
"""

from __future__ import annotations

_MASK64 = SEED_MAX = (1 << 64) - 1
# the state's increment per draw
GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, bound: int) -> int:
        """Uniform in [0, bound) by rejection, bound >= 1."""
        if bound < 1:
            raise ValueError("bound must be positive")
        span = _MASK64 - (_MASK64 % bound)
        while True:
            value = self.next_u64()
            if value < span:
                return value % bound
