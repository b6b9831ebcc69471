"""Deterministic, fully specified PRNG for data generation.

All randomness in the problem generators flows through :class:`Xoshiro256pp`
so that identical seeds produce bit-identical data streams on every platform.
The generator is specified completely:

* State initialization: the seed, an integer in [0, 2**64 - 1] (any other
  is refused), is expanded into four 64-bit state words with SplitMix64
  (``z += 0x9E3779B97F4A7C15`` then two xor-shift multiplies per output
  word).
* Raw stream: xoshiro256++ (Blackman/Vigna), output
  ``rotl(s0 + s3, 23) + s0``.
* ``uniform()``: the top 53 bits of one raw output, mapped to [0, 1) as
  ``(word >> 11) * 2**-53``.
* ``gaussian()``: Box-Muller, consuming exactly two uniforms ``u1, u2`` per
  deviate and returning ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``.  The sine
  branch is discarded (no spare caching), so the uniform-consumption order
  is one draw per ``uniform()`` and two per ``gaussian()``.
"""

from __future__ import annotations

import math

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z: int):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    x = z
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31), z


class Xoshiro256pp:
    """xoshiro256++ with SplitMix64 seeding and Box-Muller gaussians."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if seed > _MASK64:
            raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed}")
        state = []
        z = seed
        for _ in range(4):
            word, z = _splitmix64(z)
            state.append(word)
        self._s = state

    def next_raw(self) -> int:
        """Next 64-bit word of the raw stream."""
        s0, s1, s2, s3 = self._s
        # The rotations rotl(x, k) = (x << k | x >> (64 - k)) mod 2**64, inline.
        x = (s0 + s3) & _MASK64
        result = ((x << 23 | x >> 41) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & _MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_raw() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal deviate; consumes exactly two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        # 1 - u1 lies in (0, 1], keeping the log argument strictly positive.
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
