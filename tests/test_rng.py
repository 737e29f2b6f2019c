import numpy as np
import pytest

from spatialtree import rng
from spatialtree.rng import Lcg


def next_bit(g: Lcg) -> int:
    """One scalar coin flip: the top bit of the next state."""
    return g.next_u64() >> 63


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 1000, 200000])
def test_next_bits_equals_repeated_next_bit(seed, count):
    fast = Lcg(seed)
    slow = Lcg(seed)
    assert fast.next_bits(count).tolist() == [next_bit(slow) for _ in range(count)]
    assert fast.state == slow.state


def test_next_bits_continues_the_stream():
    a = Lcg(42)
    b = Lcg(42)
    got = a.next_bits(5).tolist() + [next_bit(a)] + a.next_bits(7).tolist()
    assert got == [next_bit(b) for _ in range(13)]
    assert a.next_u64() == b.next_u64()


def test_next_bits_across_table_growth(monkeypatch):
    # start from an empty jump table, so every power of two is a growth
    empty = np.zeros(0, dtype=np.uint64)
    monkeypatch.setattr(rng, "_POWERS", empty)
    monkeypatch.setattr(rng, "_OFFSETS", empty)
    counts = [1, 2]
    for k in range(2, 11):
        counts += [2 ** k - 1, 2 ** k, 2 ** k + 1]
    seeds = (7, 2 ** 63 + 5)
    fast = [Lcg(s) for s in seeds]  # two generators sharing the table
    slow = [Lcg(s) for s in seeds]
    for i, count in enumerate(counts):
        for a, b in zip(fast, slow):
            assert a.next_bits(count).tolist() == [next_bit(b) for _ in range(count)]
            assert a.state == b.state
            # scalar draws in between continue the same stream
            if i % 2:
                assert next_bit(a) == next_bit(b)
            else:
                assert a.next_u64() == b.next_u64()
        size = len(rng._POWERS)
        assert size == len(rng._OFFSETS) and size & (size - 1) == 0
        assert count <= size < 2 * count
        assert not rng._POWERS.flags.writeable and not rng._OFFSETS.flags.writeable
    with pytest.raises(ValueError):
        rng._POWERS[0] = 0
    # a later short call slices the grown table
    a, b = Lcg(3), Lcg(3)
    assert a.next_bits(3).tolist() == [next_bit(b) for _ in range(3)]
    assert len(rng._POWERS) == 2 ** 11


def test_next_bits_past_the_table_cap_draws_in_chunks(monkeypatch):
    # a cap of 8 entries: longer calls cross chunk boundaries, and the
    # table never grows past the cap
    empty = np.zeros(0, dtype=np.uint64)
    monkeypatch.setattr(rng, "_POWERS", empty)
    monkeypatch.setattr(rng, "_OFFSETS", empty)
    monkeypatch.setattr(rng, "_TABLE_MAX", 8)
    a, b = Lcg(11), Lcg(11)
    for count in (3, 7, 8, 9, 16, 17, 40, 1):
        assert a.next_bits(count).tolist() == [next_bit(b) for _ in range(count)]
        assert a.state == b.state
        assert len(rng._POWERS) == len(rng._OFFSETS) <= 8
    assert len(rng._POWERS) == 8
    assert a.next_u64() == b.next_u64()


def test_next_u64s_equals_scalar_draws_with_calls_interleaved():
    # the longer counts pass the 4,096-entry table cap, so they
    # draw in chunks; scalar draws between them continue the same stream
    fast, slow = Lcg(5), Lcg(5)
    for count in (0, 1, 131_071, 131_072, 131_073, 300_000):
        got = fast.next_u64s(count)
        assert got.dtype == np.uint64
        assert got.tolist() == [slow.next_u64() for _ in range(count)]
        assert fast.state == slow.state
        assert fast.next_below(1000) == slow.next_u64() % 1000
        assert fast.next_bits(3).tolist() == [next_bit(slow) for _ in range(3)]
    assert Lcg(5).next_u64s(-1).tolist() == []


def test_next_below_is_the_next_draw_modulo_n():
    a, b = Lcg(2 ** 64 - 1), Lcg(2 ** 64 - 1)
    for n in (1, 2, 3, 1000, 2 ** 63 + 1):
        assert a.next_below(n) == b.next_u64() % n
        assert a.state == b.state


def test_jump_table_stays_small_after_a_long_draw():
    # 4,096 entries of 16 bytes; the parent kept 131,072 (2 MiB)
    Lcg(9).next_bits(300_000)
    assert rng._POWERS.nbytes + rng._OFFSETS.nbytes <= 64 * 2 ** 10


@pytest.mark.parametrize("seed", [1.5, 2.0, "7", None, np.float64(3)])
def test_a_seed_that_is_not_an_integer_raises_value_error(seed):
    # these used to leak "unsupported operand type(s) for &"
    with pytest.raises(ValueError, match="seed must be an integer"):
        Lcg(seed)


def test_integer_seeds_of_any_integer_type_agree():
    want = Lcg(2 ** 64 + 5).next_u64s(3).tolist()
    assert Lcg(5).next_u64s(3).tolist() == want
    assert Lcg(np.uint64(5)).next_u64s(3).tolist() == want
    assert Lcg(np.int8(5)).next_u64s(3).tolist() == want
