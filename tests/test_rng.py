from __future__ import annotations

import pytest

from kextend.rng import _LANES, GAMMA, SplitMix64

SEEDS = [0, 1, 2 ** 64 - 1, GAMMA, 2 ** 64 - GAMMA, 0x243F6A8885A308D3,
         0xB7E151628AED2A6A]
PROBABILITIES = [0.0, 5e-324, 2.0 ** -53, 0.5, 1 - 2.0 ** -53, 1.0,
                 0.123, 0.7071067811865476, 1e-300, 0.999]
COUNTS = [0, 1, 2, 45, 91, _LANES - 1, _LANES, _LANES + 1]


def draw_loop(seed: int, count: int, p: float) -> tuple[int, int]:
    """The edge code from ``count`` next_float calls, and the state after."""
    rng = SplitMix64(seed)
    code = 0
    for j in range(count):
        if rng.next_float() < p:
            code |= 1 << j
    return code, rng._state


def draw_code(seed: int, count: int, p: float) -> tuple[int, int]:
    rng = SplitMix64(seed)
    return rng.next_code(count, p), rng._state


class TestNextCode:
    """next_code against the per-draw loop it replaces, bit for bit."""

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_next_float_loop(self, seed, count):
        for p in PROBABILITIES:
            assert draw_code(seed, count, p) == draw_loop(seed, count, p)

    def test_many_blocks(self):
        for seed, p in ((3, 0.5), (2 ** 64 - 1, 0.01), (GAMMA, 1 - 2.0 ** -53)):
            assert draw_code(seed, 19_900, p) == draw_loop(seed, 19_900, p)

    def test_random_seeds_counts_and_probabilities(self):
        picks = SplitMix64(2024)
        for _ in range(60):
            seed = picks.next_u64()
            count = picks.next_below(3 * _LANES)
            p = picks.next_float()
            assert draw_code(seed, count, p) == draw_loop(seed, count, p)

    @pytest.mark.parametrize("first", [0, 1, 44, _LANES - 1, _LANES + 3])
    def test_consecutive_calls_continue_the_stream(self, first):
        for seed in SEEDS[:5]:
            rng = SplitMix64(seed)
            low = rng.next_code(first, 0.5)
            high = rng.next_code(91, 0.5)
            assert (low | high << first, rng._state) == \
                draw_code(seed, first + 91, 0.5)

    def test_probability_outside_unit_interval(self):
        for p in (-1.0, -5e-324, 1 + 2.0 ** -52, 3.0, 1e300, float("nan")):
            assert draw_code(GAMMA, 91, p) == draw_loop(GAMMA, 91, p)
