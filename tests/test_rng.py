import pytest

from spatialtree.rng import Lcg


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 1000, 200000])
def test_next_bits_equals_repeated_next_bit(seed, count):
    fast = Lcg(seed)
    slow = Lcg(seed)
    assert fast.next_bits(count).tolist() == [slow.next_bit() for _ in range(count)]
    assert fast.state == slow.state


def test_next_bits_continues_the_stream():
    a = Lcg(42)
    b = Lcg(42)
    got = a.next_bits(5).tolist() + [a.next_bit()] + a.next_bits(7).tolist()
    assert got == [b.next_bit() for _ in range(13)]
    assert a.next_u64() == b.next_u64()
