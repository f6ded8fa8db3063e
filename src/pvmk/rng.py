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

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
# Gaussians drawn per block by ``SplitMix64.gausses``.
GAUSS_BLOCK = 1 << 16


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

    def _top53(self, k: int) -> np.ndarray:
        """The next k ``next_u64() >> 11`` as one uint64 array, leaving the
        state where k scalar draws would.  Draw i reads state s + i*GAMMA,
        so the k states are one uint64 array, whose arithmetic wraps mod
        2^64 silently, as ``MASK64`` does for the scalar."""
        z = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(GAMMA)
        self._state = (self._state + k * GAMMA) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
        return (z ^ (z >> np.uint64(31))) >> np.uint64(11)

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next k ``uniform(lo, hi)`` draws as one float64 array, bit for
        bit: a value below 2^53 converts to float64 exactly, and the rest
        is the same float arithmetic, element by element."""
        return lo + (hi - lo) * (self._top53(k).astype(np.float64) * 2.0 ** -53)

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

    def gausses(self, k: int) -> np.ndarray:
        """The next k ``gauss()`` draws as one float64 array, bit for bit.

        The draws fill one preallocated array in blocks of ``GAUSS_BLOCK``,
        each block's integer draws (two per Gaussian) taken at once, so what
        a call holds besides its result is bounded by the block, not by k.  The logs and cosines
        stay the scalar's ``math`` calls, one per draw, since numpy's may
        round differently.
        """
        out = np.empty(k, dtype=np.float64)
        for start in range(0, k, GAUSS_BLOCK):
            top = self._top53(2 * min(GAUSS_BLOCK, k - start))
            u1 = ((top[0::2] + np.uint64(1)).astype(np.float64) * 2.0 ** -53).tolist()
            u2 = (top[1::2].astype(np.float64) * 2.0 ** -53).tolist()
            out[start : start + len(u1)] = [
                math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b) for a, b in zip(u1, u2)
            ]
        return out

    def distinct_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("k out of range")
        idx = list(range(n))
        for t in range(k):
            j = self.randint(t, n - 1)
            idx[t], idx[j] = idx[j], idx[t]
        return idx[:k]
