import json
import operator
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialtree.cli import ALGORITHMS, main
from spatialtree.curves import CurveKind, curve_distance
from spatialtree.sim import (ORDERED_CHUNK, Placement, SimState, TraceEvent,
                             all_reduce_barrier, broadcast_range, broadcast_ranges,
                             compact, permute, prefix_sum, reduce_range)


def fresh(n, kind=CurveKind.HILBERT, **kw):
    return SimState(Placement.for_size(kind, n), **kw)


def test_placement_minimal_padding():
    for n in (1, 2, 4, 5, 16, 17, 64, 65):
        p = Placement.for_size(CurveKind.HILBERT, n)
        assert 4 ** p.k >= n
        assert p.k == 0 or 4 ** (p.k - 1) < n


def test_self_send_costs_nothing_but_ticks_the_clock():
    s = fresh(4)
    s.send(2, 2)
    assert s.energy == 0 and s.messages == 1 and s.clock[2] == 1


def test_two_chained_sends_have_depth_two():
    s = fresh(8)
    s.send(0, 3)
    s.send(3, 7)
    assert s.depth == 2
    assert s.clock[7] == 2


def test_send_cost_is_curve_distance():
    s = fresh(16, CurveKind.ZORDER)
    s.send(6, 10)
    assert s.energy == curve_distance(CurveKind.ZORDER, 2, 6, 10) == 4


def test_send_rejects_out_of_range():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send(0, 4)
    with pytest.raises(ValueError):
        s.send(-1, 0)


def test_send_at_departs_at_the_given_clock():
    s = fresh(4)
    s.send_at([0], [3], [5])
    assert s.clock[3] == 6 and s.depth == 6 and s.clock[0] == 0
    s.send_at([1], [3], [2])  # an earlier arrival does not lower the clock
    assert s.clock[3] == 6 and s.messages == 2
    with pytest.raises(ValueError):
        s.send_at([0], [4], [0])


@pytest.mark.parametrize("n,count", [(64, 5), (64, 40), (1000, 3000)])
def test_send_at_batch_matches_one_message_at_a_time(n, count):
    # narrow and wide batches with repeated receivers and self-sends,
    # departing below and above their sources' clocks
    rng = np.random.default_rng(n + count)
    got = fresh(n, trace=True)
    want = fresh(n, trace=True)
    start = rng.integers(0, 20, n).tolist()
    got.clock[:] = start
    want.clock[:] = start
    for _ in range(3):
        src = rng.integers(0, n, count)
        dst = rng.integers(0, n, count)
        dst[:3] = src[:3]
        ready = rng.integers(0, 40, count)
        got.send_at(src, dst, ready)
        for a, b, r in zip(src.tolist(), dst.tolist(), ready.tolist()):
            want.send_at([a], [b], [r])
        assert state_of(got) == state_of(want)


@pytest.mark.parametrize("src,dst,ready", [([0, 1, 8], [1, 2, 3], [0, 0, 0]),
                                           ([0, 1], [1, -1], [0, 0]),
                                           ([0, 1], [1, 2], [0]),
                                           ([0, 1], [1, 2], [0.5, 1.0])])
def test_send_at_rejects_a_bad_batch_and_charges_nothing(src, dst, ready):
    s = fresh(8, trace=True)
    s.clock[:] = range(8)
    with pytest.raises(ValueError):
        s.send_at(src, dst, ready)
    assert (s.energy, s.depth, s.messages, len(s.events)) == (0, 0, 0, 0)
    assert s.clock.tolist() == list(range(8))


def test_send_rejects_source_past_the_end():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send(4, 0)
    assert s.messages == 0


def reference_round(sim, src, dst):
    """Scalar sends that all depart at the start-of-round clocks."""
    start = list(sim.clock)
    for a, b in zip(src, dst):
        sim.send_at([a], [b], [start[a]])


def state_of(sim):
    return (sim.energy, sim.depth, sim.messages, list(sim.clock), sim.events)


@pytest.mark.parametrize("n,count", [(64, 5), (64, 40), (1000, 3000),
                                     (20000, 30000)])
def test_send_round_matches_scalar_sends_from_start_clocks(n, count):
    # narrow and wide rounds, with repeated receivers and self-sends; the
    # last grid is wider than one clock write-back slice
    rng = np.random.default_rng(n + count)
    got = fresh(n, trace=True)
    want = fresh(n, trace=True)
    for _ in range(4):
        src = rng.integers(0, n, count)
        dst = rng.integers(0, n, count)
        dst[:3] = src[:3]
        got.send_round(src, dst)
        reference_round(want, src.tolist(), dst.tolist())
        assert state_of(got) == state_of(want)


def test_send_round_duplicate_receivers_take_the_largest_depth():
    s = fresh(8, trace=True)
    s.clock[1] = 4
    s.send_round(np.array([0, 1, 2]), np.array([5, 5, 5]))
    assert s.clock[5] == 5 and s.depth == 5
    assert [e.depth for e in s.events] == [1, 5, 1]


def test_send_round_self_send_and_swap_use_start_clocks():
    s = fresh(4, trace=True)
    s.clock[0] = 2
    s.send_round(np.array([0, 1, 3]), np.array([1, 0, 3]))
    assert s.clock.tolist() == [2, 3, 0, 1]
    assert s.energy == 2 and s.messages == 3
    assert s.events == [TraceEvent(0, 1, 1, 3), TraceEvent(1, 0, 1, 1),
                        TraceEvent(3, 3, 0, 1)]
    assert all(type(v) is int for e in s.events for v in e)


def test_send_round_empty_is_free():
    s = fresh(4, trace=True)
    s.send_round(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    s.send_batch([])
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


@pytest.mark.parametrize("pairs", [[(0, 1), (5, 0)], [(0, 1), (1, 7)],
                                   [(0, 1), (-1, 2)], [(0, 1), (2, -3)]])
def test_bad_round_raises_and_charges_nothing(pairs):
    s = fresh(4, trace=True)
    s.send(2, 3)
    before = (s.energy, s.depth, s.messages, list(s.clock), list(s.events))
    with pytest.raises(ValueError):
        s.send_batch(pairs)
    src, dst = zip(*pairs)
    with pytest.raises(ValueError):
        s.send_round(np.array(src), np.array(dst))
    assert (s.energy, s.depth, s.messages, s.clock.tolist(), s.events) == before


def test_send_round_rejects_malformed_arrays():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send_round(np.array([0, 1]), np.array([1]))
    with pytest.raises(ValueError):
        s.send_round(np.array([0.0]), np.array([1.0]))
    assert s.messages == 0


def scalar_wave(sim, src, dst):
    for a, b in zip(src, dst):
        sim.send(a, b)


def random_wave(rng, n, count):
    """Distinct receivers in random order, sources drawn partly from the
    receivers so many messages depart after an earlier one reached them."""
    dst = rng.permutation(n)[:count]
    src = np.where(rng.random(count) < 0.7, rng.permutation(dst),
                   rng.integers(0, n, count))
    return src, dst


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("n,count", [(8, 1), (64, 20), (64, 64), (1000, 700),
                                     (20000, 15000)])
def test_send_wave_matches_scalar_sends(n, count, trace):
    # the last case spans several chunks of a wave
    rng = np.random.default_rng(n * 7 + count)
    got = fresh(n, trace=trace)
    want = fresh(n, trace=trace)
    start = rng.integers(0, 5, n).tolist()
    got.clock[:] = start
    want.clock[:] = start
    for _ in range(3):
        src, dst = random_wave(rng, n, count)
        got.send_wave(src, dst)
        scalar_wave(want, src.tolist(), dst.tolist())
        assert state_of(got) == state_of(want)


def test_send_wave_late_receiver_departs_at_its_old_clock():
    s = fresh(8, trace=True)
    s.clock[3] = 2
    s.send_wave(np.array([3, 0, 5]), np.array([6, 3, 7]))
    # 3 sends before it receives; 5 never receives in the wave
    assert [e.depth for e in s.events] == [3, 1, 1]
    assert s.clock[3] == 2 and s.clock[6] == 3


@pytest.mark.parametrize("length", [5, 4096, 9000])
def test_send_wave_chain_against_index_order(length):
    # message i relays what message i - 1 delivered, but the chain visits
    # positions in descending order; the longest chain crosses chunks
    n = length + 1
    path = np.arange(n)[::-1]
    got = fresh(n, trace=True)
    want = fresh(n, trace=True)
    got.send_wave(path[:-1], path[1:])
    scalar_wave(want, path[:-1].tolist(), path[1:].tolist())
    assert got.depth == length
    assert state_of(got) == state_of(want)


def test_send_wave_matches_scalar_sends_from_clocks_above_2_31():
    # uneven start clocks past int32, one chain longer than an ordered chunk
    # interleaved with other messages, and sources that send before the
    # message into them arrives
    rng = np.random.default_rng(31)
    n = 3 * ORDERED_CHUNK
    length = ORDERED_CHUNK + 500
    dst = rng.permutation(n)[:n - 7]
    src = np.where(rng.random(len(dst)) < 0.7, rng.permutation(dst),
                   rng.integers(0, n, len(dst)))
    src[1:length] = dst[:length - 1]
    keys = np.concatenate((np.sort(rng.random(length)), rng.random(len(dst) - length)))
    order = np.argsort(keys)
    src, dst = src[order], dst[order]
    when = np.full(n, len(dst))
    when[dst] = np.arange(len(dst))
    assert (when[src] > np.arange(len(dst))).sum() > 1000
    got = fresh(n, trace=True)
    want = fresh(n, trace=True)
    start = 2 ** 31 + rng.integers(0, 2 * length, n)
    got.clock[:] = start
    want.clock[:] = start
    got.send_wave(src, dst)
    scalar_wave(want, src.tolist(), dst.tolist())
    assert state_of(got) == state_of(want)
    assert got.depth > 2 ** 31 + length and type(got.depth) is int


@pytest.mark.parametrize("src,dst", [([0, 1], [2, 2]), ([0, 1, 2], [3, 0, 3]),
                                     ([0, 1], [1, 4]), ([-1], [0]),
                                     ([0.0], [1.0]), ([0, 1], [1])])
def test_bad_wave_raises_and_charges_nothing(src, dst):
    s = fresh(4, trace=True)
    s.send(2, 3)
    before = (s.energy, s.depth, s.messages, list(s.clock), list(s.events))
    with pytest.raises(ValueError):
        s.send_wave(np.array(src), np.array(dst))
    assert (s.energy, s.depth, s.messages, s.clock.tolist(), s.events) == before


def test_send_wave_empty_is_free():
    s = fresh(4, trace=True)
    s.send_wave(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def random_ordered_batch(rng, n, count):
    """Receivers drawn with repeats, sources drawn mostly from receivers
    earlier in the batch, so many messages relay what just arrived."""
    dst = rng.integers(0, n, count)
    src = rng.integers(0, n, count)
    back = rng.random(count) < 0.7
    back[0] = False
    earlier = (rng.random(count) * np.arange(count)).astype(np.int64)
    src[back] = dst[earlier[back]]
    return src, dst


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("n,count", [(8, 1), (8, 40), (64, 64), (1000, 3000),
                                     (5000, 13000)])
def test_send_ordered_matches_scalar_sends(n, count, trace):
    # the last two cases span several chunks of an ordered batch
    rng = np.random.default_rng(n * 3 + count)
    got = fresh(n, trace=trace)
    want = fresh(n, trace=trace)
    start = rng.integers(0, 5, n).tolist()
    got.clock[:] = start
    want.clock[:] = start
    for _ in range(3):
        src, dst = random_ordered_batch(rng, n, count)
        assert len(np.unique(dst)) < count or count == 1
        got.send_ordered(src, dst)
        scalar_wave(want, src.tolist(), dst.tolist())
        assert state_of(got) == state_of(want)


def test_send_ordered_repeated_receiver_relays_after_each_arrival():
    s = fresh(8, trace=True)
    s.clock[2] = 3
    s.send_ordered(np.array([0, 1, 2, 1, 5]), np.array([1, 5, 1, 6, 1]))
    # 1 receives three times and sends twice, each time at its clock then
    assert [e.depth for e in s.events] == [1, 2, 4, 5, 3]
    assert s.clock[:7].tolist() == [0, 4, 3, 0, 0, 2, 5]
    assert s.depth == 5 and s.messages == 5


@pytest.mark.parametrize("src,dst", [([0, 1], [2, 4]), ([-1], [0]), ([0], [-2]),
                                     ([0.0], [1.0]), ([0, 1], [1]),
                                     ([[0, 1]], [[1, 2]])])
def test_bad_ordered_batch_raises_and_charges_nothing(src, dst):
    s = fresh(4, trace=True)
    s.send(2, 3)
    before = (s.energy, s.depth, s.messages, list(s.clock), list(s.events))
    with pytest.raises(ValueError):
        s.send_ordered(np.array(src), np.array(dst))
    assert (s.energy, s.depth, s.messages, s.clock.tolist(), s.events) == before


def test_send_ordered_empty_is_free():
    s = fresh(4, trace=True)
    s.send_ordered(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def test_send_rounds_equal_consecutive_send_rounds():
    rng = np.random.default_rng(5)
    for n, count in ((64, 5), (256, 300)):  # narrow and wide
        rounds = [(rng.integers(0, n, count), rng.integers(0, n, count))
                  for _ in range(4)]
        got = fresh(n, trace=True)
        want = fresh(n, trace=True)
        got.send_rounds(rounds)
        for src, dst in rounds:
            want.send_round(src, dst)
        assert state_of(got) == state_of(want)


def test_send_rounds_checks_every_round_first():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send_rounds([(np.array([0]), np.array([1])), (np.array([0]), np.array([4]))])
    assert s.messages == 0 and s.clock.tolist() == [0] * 4


def test_broadcast_ranges_match_scalar_broadcasts():
    ranges = [(0, 0), (1, 9), (10, 11), (15, 47), (50, 63)]
    got = fresh(64, trace=True)
    want = fresh(64, trace=True)
    start = np.random.default_rng(3).integers(0, 6, 64).tolist()
    got.clock[:] = start
    want.clock[:] = start
    los, his = zip(*ranges)
    broadcast_ranges(got, np.array(los), np.array(his))
    for a, b in ranges:
        broadcast_range(want, a, b)
    assert (got.energy, got.depth, got.messages, got.clock.tolist()) == \
        (want.energy, want.depth, want.messages, want.clock.tolist())
    assert sorted(got.events) == sorted(want.events)
    with pytest.raises(ValueError):
        broadcast_ranges(got, np.array([3]), np.array([64]))


def test_depth_matches_longest_path_in_hand_built_dag():
    # 5 events: 0->1, 1->2, 0->3, 3->2, 2->0; longest dependent chain is 3
    s = fresh(4)
    s.send(0, 1)
    s.send(1, 2)
    s.send(0, 3)
    s.send(3, 2)
    s.send(2, 0)
    edges = [(0, 1), (1, 2), (0, 3), (3, 2), (2, 0)]
    # exhaustive longest-path over the event dag: event depends on the
    # latest earlier event delivered to its source
    best = 0
    depths = []
    for i, (src, dst) in enumerate(edges):
        d = 1 + max((depths[j] for j in range(i) if edges[j][1] == src), default=0)
        depths.append(d)
        best = max(best, d)
    assert s.depth == best == 3


def test_broadcast_singleton_is_free():
    s = fresh(8)
    broadcast_range(s, 5, 5)
    assert s.messages == 0 and s.energy == 0


def test_broadcast_small_range_pinned():
    # [0,3] on Hilbert k=1: sends 0->2, 0->1, 2->3 over cells
    # (0,0),(1,0),(1,1),(0,1): energy 2+1+1, two dependent levels
    s = fresh(4)
    broadcast_range(s, 0, 3)
    assert s.messages == 3
    assert s.energy == 4
    assert s.depth == 2


def test_broadcast_reaches_every_position():
    s = fresh(32)
    broadcast_range(s, 3, 30)
    assert all(s.clock[p] >= 1 for p in range(4, 31))


def test_broadcast_invalid_range():
    s = fresh(8)
    with pytest.raises(ValueError):
        broadcast_range(s, 5, 3)
    with pytest.raises(ValueError):
        broadcast_range(s, 0, 8)


def test_broadcast_energy_per_element_bounded():
    # per-element energy converges to 2.0; the quadrupling ratio is within
    # 4.5 once the additive constant stops dominating (from 2^6 up)
    prev = None
    for m in range(4, 17, 2):
        s = fresh(2 ** m)
        broadcast_range(s, 0, 2 ** m - 1)
        assert s.energy / 2 ** m <= 2.5
        if prev is not None and m >= 8:
            assert s.energy / prev <= 4.5
        prev = s.energy


def test_reduce_examples():
    s = fresh(8)
    assert reduce_range(s, 2, 2, [0, 0, 9, 0, 0, 0, 0, 0], operator.add) == 9
    assert s.messages == 0
    assert reduce_range(s, 0, 7, [1] * 8, operator.add) == 8
    s2 = fresh(16)
    assert reduce_range(s2, 0, 15, list(range(16)), max) == 15


def test_barrier_semantics():
    s = fresh(8)
    s.clock[3] = 7
    pre_barrier_max = max(s.clock)
    all_reduce_barrier(s)
    assert min(s.clock) >= 7
    # nothing delivered after the barrier sits at or below the pre-barrier max
    s.send(0, 1)
    assert s.clock[1] > pre_barrier_max
    for src in range(8):
        assert s.clock[src] + 1 > pre_barrier_max


def test_barrier_on_single_position_sends_nothing():
    s = fresh(1)
    all_reduce_barrier(s)
    assert s.messages == 0


def test_barrier_energy_linear():
    s = fresh(4096)
    all_reduce_barrier(s)
    assert s.energy <= 8 * 4096  # measured constant, pinned with headroom


def test_prefix_sum_examples():
    s = fresh(8)
    assert prefix_sum(s, [0] * 8) == [0] * 8
    s = fresh(8)
    assert prefix_sum(s, [1] * 8) == list(range(1, 9))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=64))
def test_prefix_sum_matches_sequential_scan(vals):
    s = fresh(len(vals))
    got = prefix_sum(s, vals)
    acc, exp = 0, []
    for v in vals:
        acc += v
        exp.append(acc)
    assert got == exp


def recursive_sweep(sim, m):
    """The up/down sweep in recursion order, one scalar send at a time."""
    def up(lo, hi):
        if lo < hi:
            mid = (lo + hi) // 2
            up(lo, mid)
            up(mid + 1, hi)
            sim.send(mid + 1, lo)

    def down(lo, hi):
        if lo < hi:
            mid = (lo + hi) // 2
            down(lo, mid)
            sim.send(lo, mid + 1)
            down(mid + 1, hi)

    up(0, m - 1)
    down(0, m - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 100, 257])
@pytest.mark.parametrize("kernel", ["prefix_sum", "barrier"])
def test_level_sweeps_charge_like_the_recursive_order(m, kernel):
    start = np.random.default_rng(m).integers(0, 9, m).tolist()
    got = fresh(m, trace=True)
    want = fresh(m, trace=True)
    got.clock[:] = start
    want.clock[:] = start
    if kernel == "prefix_sum":
        assert prefix_sum(got, list(range(m))) == [i * (i + 1) // 2 for i in range(m)]
    else:
        all_reduce_barrier(got)
    recursive_sweep(want, m)
    assert (got.energy, got.depth, got.messages, got.clock.tolist()) == \
        (want.energy, want.depth, want.messages, want.clock.tolist())
    assert sorted(got.events) == sorted(want.events)


def test_permute_identity_free_and_reverse_pinned():
    s = fresh(4)
    permute(s, {i: i for i in range(4)})
    assert s.energy == 0
    s = fresh(4)
    permute(s, {i: 3 - i for i in range(4)})
    # distances between opposite cells of the k=1 Hilbert square
    assert s.energy == 4
    assert s.depth == 1


def test_permute_rejects_duplicate_targets():
    s = fresh(4)
    with pytest.raises(ValueError):
        permute(s, {0: 2, 1: 2})


def test_permute_rejects_out_of_range_before_charging():
    s = fresh(4)
    with pytest.raises(ValueError):
        permute(s, {0: 1, 1: 4})
    assert s.messages == 0 and s.energy == 0


def test_permute_energy_diameter_bound():
    n = 256
    s = fresh(n)
    permute(s, {i: (i * 97 + 13) % n for i in range(n)})
    assert s.energy <= 2 * n * (n ** 0.5)


def test_compact_examples():
    s = fresh(16)
    dest, count = compact(s, [False] * 16)
    assert count == 0 and all(d is None for d in dest)
    s = fresh(16)
    dest, count = compact(s, [True] * 16)
    assert count == 16 and dest == list(range(16))
    s = fresh(16)
    dest, count = compact(s, [i % 2 == 0 for i in range(16)])
    assert count == 8
    assert [dest[i] for i in range(0, 16, 2)] == list(range(8))


def test_determinism_identical_logs():
    def run():
        s = fresh(64, trace=True)
        broadcast_range(s, 0, 63)
        all_reduce_barrier(s)
        prefix_sum(s, list(range(64)))
        return s.events

    assert run() == run()


def test_trace_export_jsonl(tmp_path):
    s = fresh(8, trace=True)
    broadcast_range(s, 0, 7)
    path = tmp_path / "trace.jsonl"
    s.dump_trace(path)
    lines = path.read_text().splitlines()
    assert len(lines) == s.messages
    ev = json.loads(lines[0])
    assert set(ev) == {"src", "dst", "cost", "depth"}


def reference_dump(events, path):
    """The JSON-lines trace written one json.dumps call per event."""
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps({"src": ev.src, "dst": ev.dst,
                                 "cost": ev.cost, "depth": ev.depth}) + "\n")


def mixed_traced_run():
    """Scalar sends, a narrow round, a wide round and a wave on one grid."""
    s = fresh(64, trace=True)
    s.send(np.int64(3), 40)
    s.send_at([40], [7], [5])
    s.send_round(np.array([7, 40, 3]), np.array([9, 9, 63]))
    rng = np.random.default_rng(5)
    s.send_round(rng.integers(0, 64, 50), rng.integers(0, 64, 50))
    s.send_wave(np.array([9, 1, 2, 30]), np.array([1, 2, 30, 9]))
    return s


def test_dump_trace_matches_json_dumps_per_event(tmp_path):
    s = mixed_traced_run()
    assert len(s.events) == s.messages == 59
    s.dump_trace(tmp_path / "got.jsonl")
    reference_dump(s.events, tmp_path / "want.jsonl")
    want = (tmp_path / "want.jsonl").read_bytes()
    assert (tmp_path / "got.jsonl").read_bytes() == want
    assert want.count(b"\n") == 59


def test_trace_fields_are_python_ints():
    s = mixed_traced_run()
    assert all(type(v) is int for e in s.events for v in e)
    assert type(s.events[0].src) is int


CHARGE_PATHS = {
    "send": lambda s: s.send(np.int64(3), 40),
    "send_at": lambda s: s.send_at(np.array([40, 3]), np.array([7, 7]),
                                   np.array([5, 2 ** 40])),
    "rounds": lambda s: s.send_rounds([(np.array([7, 40]), np.array([9, 9])),
                                       (np.array([9]), np.array([63]))]),
    "wave": lambda s: s.send_wave(np.array([9, 1, 2]), np.array([1, 2, 30])),
    "ordered": lambda s: s.send_ordered(np.array([30, 1, 1]), np.array([1, 30, 1])),
}


@pytest.mark.parametrize("path", CHARGE_PATHS)
def test_report_and_trace_hold_python_ints_after_each_charge_path(path):
    s = fresh(64, trace=True)
    s.clock[:] = 2 ** 33
    CHARGE_PATHS[path](s)
    assert s.messages > 0
    assert all(type(v) is int for v in astuple(s.report()))
    assert all(type(v) is int for e in s.events for v in e)


def test_run_json_parses_for_every_algorithm(tmp_path, capsys):
    # result lines go to stdout, the report to --out
    report = tmp_path / "report.json"
    for algorithm in ALGORITHMS:
        assert main(["run", "--algorithm", algorithm, "--kind", "random-attachment",
                     "--n", "40", "--format", "json", "--out", str(report)]) == 0
        (row,) = json.loads(report.read_text())
        assert row["algorithm"] == algorithm and row["messages"] > 0
        assert all(type(row[key]) is int for key in ("energy", "depth", "messages"))


def test_dump_trace_without_messages_is_empty(tmp_path):
    s = fresh(8, trace=True)
    s.dump_trace(tmp_path / "trace.jsonl")
    assert (tmp_path / "trace.jsonl").read_bytes() == b""
    assert len(s.events) == 0 and s.events == []


def test_untraced_state_has_no_events(tmp_path):
    s = fresh(8)
    s.send(0, 1)
    assert s.events is None
    with pytest.raises(ValueError):
        s.dump_trace(tmp_path / "trace.jsonl")


def test_trace_events_index_like_a_list():
    s = mixed_traced_run()
    events = list(s.events)
    count = len(events)
    assert s.events[-1] == events[-1] == s.events[count - 1]
    assert s.events[0] == events[0] == s.events[-count]
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            s.events[i]
    assert s.events == events and s.events == mixed_traced_run().events
    assert s.events != events[:-1] and s.events != tuple(events)


def test_energy_additivity():
    s = fresh(64, trace=True)
    broadcast_range(s, 0, 63)
    reduce_range(s, 0, 63, [1] * 64, operator.add)
    assert s.energy == sum(e.cost for e in s.events)
    assert s.depth == max(e.depth for e in s.events)
    assert s.messages == len(s.events)


def test_memory_audit_reports_not_fatal():
    s = fresh(8, audit_memory=True, memory_budget=4)
    s.note_words(0, 3)
    s.note_words(1, 9)
    assert s.max_words == 9
    assert s.violations == [(1, 9)]
    s2 = fresh(8)  # audit off: no tracking
    s2.note_words(0, 99)
    assert s2.max_words == 0


@pytest.mark.parametrize("words", [3, 4, 9])
@pytest.mark.parametrize("positions", [[], [5], [2, 0, 7, 2], np.array([], dtype=np.intc),
                                       np.array([2, 0, 7, 2], dtype=np.intc)])
def test_note_words_many_equals_one_call_per_position(positions, words):
    got = fresh(8, audit_memory=True, memory_budget=4)
    want = fresh(8, audit_memory=True, memory_budget=4)
    for s in (got, want):
        s.note_words(6, 2)
    got.note_words_many(positions, words)
    for pos in positions:
        want.note_words(pos, words)
    assert (got.max_words, got.violations) == (want.max_words, want.violations)
    assert all(type(pos) is int for pos, _ in got.violations)
