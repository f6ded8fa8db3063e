"""Seeded small-state generator behind every randomized sweep.

SplitMix64: the state advances by the golden-gamma constant
0x9E3779B97F4A7C15 per draw and the output is finalized with the mix
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shifts 30/27/31).
The integer stream for a given seed is therefore reproducible across
platforms and implementations; floating-point derivations below are plain
arithmetic on that stream.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int = 0):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def spawn(self) -> "SplitMix64":
        """Child generator seeded from this stream (per-trial seeds)."""
        return SplitMix64(self.next_u64())

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo reduction (bias immaterial at these ranges)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def gauss(self) -> float:
        # Box-Muller; u1 bumped off zero so the log is finite.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def distinct_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("k out of range")
        idx = list(range(n))
        for t in range(k):
            j = self.randint(t, n - 1)
            idx[t], idx[j] = idx[j], idx[t]
        return idx[:k]
