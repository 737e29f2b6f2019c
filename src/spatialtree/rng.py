"""Deterministic 64-bit linear congruential generator.

Constants are fixed so that seeded runs replay bit-identically everywhere;
every coin flip and random draw in the package flows through this class.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def next_bit(self) -> int:
        return self.next_u64() >> 63

    def next_bits(self, count: int) -> np.ndarray:
        """``count`` coin flips as a 0/1 uint8 array, identical to ``count``
        calls of :meth:`next_bit`.

        Jumps ahead in uint64 arithmetic, which wraps mod 2^64 like the
        scalar step: state_i = a^i * state_0 + c * (1 + a + ... + a^(i-1)).
        """
        if count <= 0:
            return np.zeros(0, dtype=np.uint8)
        powers = np.multiply.accumulate(np.full(count, _MULT, dtype=np.uint64))
        # add.accumulate, not np.cumsum: under numpy 2.4 repeated cumsum
        # calls left small objects alive and let the heap grow run by run
        sums = np.add.accumulate(np.concatenate((np.ones(1, dtype=np.uint64), powers[:-1])))
        states = powers * np.uint64(self.state) + sums * np.uint64(_INC)
        self.state = int(states[-1])
        return (states >> np.uint64(63)).astype(np.uint8)

    def next_below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant at our sizes."""
        return self.next_u64() % n

    def next_float(self) -> float:
        return self.next_u64() / float(1 << 64)
