"""Reproducible random source.

The generator is SplitMix64 (Steele, Lea, Vigna): a 64-bit counter-based
mixer with fixed constants.  It is pinned here, independent of Python's
own PRNG, so that seeded corpora are byte-identical across platforms and
releases.  Floats are drawn as the top 53 bits scaled by 2**-53.

Each draw first adds GAMMA to the state, so j draws after seeding with s
the state is s + j * GAMMA mod 2**64: SplitMix64(s + j * GAMMA) continues
the stream of SplitMix64(s) from its draw j on, without drawing the first
j values.

next_code draws many values at once as one integer of 128-bit lanes, in
blocks of _LANES: lane j starts at state + (j + 1) * GAMMA, each lane is
masked back to 64 bits after every xor-shift (clearing the bits that a
right shift pulls in from the lane above), and a product of a masked lane
and a 64-bit constant stays below 2**128, so no lane spills into the next.
A draw is below p exactly when its top 53 bits are below ceil(p * 2**53),
read off as bit 64 of 2**64 + ceil(p * 2**53) - 1 minus those bits: no
borrow crosses a lane.
"""

from __future__ import annotations

from functools import lru_cache

_MASK64 = SEED_MAX = (1 << 64) - 1
# the state's increment per draw
GAMMA = 0x9E3779B97F4A7C15
# lanes per block of next_code, so its memory does not grow with the count
_LANES = 1024
_DIGITS = bytes.maketrans(b"\0\1", b"01")


@lru_cache(maxsize=8)
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """1, GAMMA * (j + 1) and 2**64 - 1 in each lane j, built through bytes
    in linear time; a corpus draws blocks of at most two sizes."""
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * lanes, "little")
    steps = int.from_bytes(b"".join(
        j.to_bytes(16, "little") for j in range(1, lanes + 1)), "little")
    return ones, GAMMA * steps, _MASK64 * ones


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

    def next_code(self, count: int, p: float) -> int:
        """Bit j set when the j-th of the next ``count`` next_float draws
        is below p; advances the state by ``count`` draws."""
        p = max(0.0, min(p, 1.0))  # NaN gives 0.0, as no draw is below it
        top = (1 << 64) + (p * 2.0 ** 53).__ceil__() - 1
        digits = []
        while count > 0:
            lanes = min(count, _LANES)
            ones, steps, mask = _lane_constants(lanes)
            z = (self._state * ones + steps) & mask
            z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
            z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
            z = ((z ^ (z >> 31)) >> 11) & mask
            below = (top * ones - z).to_bytes(16 * lanes, "little")
            digits.append(below[8::16])
            self._state = (self._state + lanes * GAMMA) & _MASK64
            count -= lanes
        return int(b"".join(digits).translate(_DIGITS)[::-1] or b"0", 2)

    def next_below(self, bound: int) -> int:
        """Uniform in [0, bound) by rejection, bound >= 1."""
        if bound < 1:
            raise ValueError("bound must be positive")
        span = _MASK64 - (_MASK64 % bound)
        while True:
            value = self.next_u64()
            if value < span:
                return value % bound
