"""Deterministic 64-bit linear congruential generator.

Constants are fixed so that seeded runs replay bit-identically everywhere;
every coin flip and random draw in the package flows through this class.

:meth:`Lcg.next_u64s` and :meth:`Lcg.next_bits` give the same stream as
that many scalar draws.  They jump ahead with one module-wide table of the
pairs (a^i, c * (1 + a + ... + a^(i-1))) for i = 1, 2, ...  The table is
read-only, shared by every generator, and grown to the next power of two
when a call asks for more draws than it holds, up to ``_TABLE_MAX`` =
4,096 entries (16 bytes each, so at most 64 KiB is kept for the life of
the process).  A longer call draws in table-sized chunks, each chunk
starting from the state the last one ended at.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1

# the jump-ahead pairs for i = 1 .. len, len <= _TABLE_MAX; see _jump_table
_TABLE_MAX = 1 << 12
_POWERS = _OFFSETS = np.zeros(0, dtype=np.uint64)


def _jump_table(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` (at most ``_TABLE_MAX``) pairs
    (a^i, c * (1 + a + ... + a^(i-1))) as two read-only uint64 arrays, so
    state_i = a^i * state_0 + offset_i in uint64 arithmetic, which wraps
    mod 2^64 like the scalar step."""
    global _POWERS, _OFFSETS
    if len(_POWERS) < count:
        size = min(1 << (count - 1).bit_length(), _TABLE_MAX)
        powers = np.multiply.accumulate(np.full(size, _MULT, dtype=np.uint64))
        offsets = np.add.accumulate(np.concatenate((np.ones(1, dtype=np.uint64), powers[:-1])))
        offsets *= np.uint64(_INC)
        for a in (powers, offsets):
            a.flags.writeable = False
        _POWERS, _OFFSETS = powers, offsets
    return _POWERS[:count], _OFFSETS[:count]


class Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def _chunks(self, count: int):
        """The next ``count`` states as (offset, uint64 array) chunks of up
        to ``_TABLE_MAX``: one multiply and one add per chunk over a slice
        of the shared jump-ahead table.  The state advances as each chunk
        is taken."""
        powers, offsets = _jump_table(min(count, _TABLE_MAX))
        for lo in range(0, count, _TABLE_MAX):
            k = min(len(powers), count - lo)
            states = powers[:k] * np.uint64(self.state)
            states += offsets[:k]
            self.state = int(states[-1])
            yield lo, states

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` states as a uint64 array, identical to
        ``count`` calls of :meth:`next_u64`."""
        out = np.empty(max(count, 0), dtype=np.uint64)
        for lo, states in self._chunks(count):
            out[lo:lo + len(states)] = states
        return out

    def next_bits(self, count: int) -> np.ndarray:
        """``count`` coin flips as a 0/1 uint8 array: the top bit of each of
        the next ``count`` states of :meth:`next_u64`."""
        bits = np.empty(max(count, 0), dtype=np.uint8)
        for lo, states in self._chunks(count):
            states >>= np.uint64(63)
            bits[lo:lo + len(states)] = states
        return bits

    def next_below(self, n: int) -> int:
        """Uniform-ish draw in [0, n), the same as ``next_u64() % n``; modulo
        bias is irrelevant at our sizes.  The step is inlined because input
        generators call this once per vertex or query."""
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state % n

    def next_float(self) -> float:
        return self.next_u64() / float(1 << 64)
