import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spatialtree
from spatialtree import cli, sim
from spatialtree.cli import ALGORITHMS, main
from spatialtree.curves import CurveKind, cell_count, curve_coords
from spatialtree.layout import light_first_layout
from spatialtree.sim import (_BLOCK, Placement, SimState, TraceEvent,
                             _range_levels, _trace_lines, all_reduce_barrier, broadcast_range,
                             broadcast_ranges, compact, permute, prefix_sum)
from spatialtree.treefix import treefix_topdown
from spatialtree.trees import gen_tree
from test_curves import reference_coords


def fresh(n, kind=CurveKind.HILBERT, **kw):
    return SimState(Placement.for_size(kind, n), **kw)


def note_words(sim, pos, words):
    """Reference for the audit hook, one position at a time: pos holds this
    many live words."""
    if not sim.audit:
        return
    if words > sim.max_words:
        sim.max_words = words
    if words > sim.memory_budget:
        sim.violations.append((pos, words))


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
    rows, cols = curve_coords(CurveKind.ZORDER, 2)
    assert s.energy == abs(rows[6] - rows[10]) + abs(cols[6] - cols[10]) == 4


@pytest.mark.parametrize("kind", list(CurveKind))
@pytest.mark.parametrize("k", range(0, 11))
def test_round_prices_match_cells_worked_out_per_index(kind, k):
    # the packed table against the per-index bit loop, over a round that
    # spans a block boundary and a few scalar sends
    n = cell_count(k)
    rng = np.random.default_rng(1000 + k)
    src = rng.integers(0, n, _BLOCK + _BLOCK // 2)
    dst = rng.integers(0, n, len(src))
    s = SimState(Placement(kind, k, n), trace=True)
    s.send_round(src, dst)
    src_rows, src_cols = reference_coords(kind, k, src)
    dst_rows, dst_cols = reference_coords(kind, k, dst)
    want = np.abs(src_rows - dst_rows) + np.abs(src_cols - dst_cols)
    assert s.energy == int(want.sum())
    assert [e.cost for e in s.events] == want.tolist()
    for a, b, cost in zip(src[:20].tolist(), dst[:20].tolist(), want[:20].tolist()):
        before = s.energy
        s.send(a, b)
        assert s.energy - before == cost


def test_send_rejects_out_of_range():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send(0, 4)
    with pytest.raises(ValueError):
        s.send(-1, 0)


@pytest.mark.parametrize("src,dst", [(1.0, 2), (1, 2.5), (True, 2), (1, np.True_), (None, 0)])
def test_send_rejects_a_position_that_is_not_an_integer(src, dst):
    s = fresh(4, trace=True)
    with pytest.raises(ValueError, match="^positions must be integers, not "):
        s.send(src, dst)
    assert state_of(s) == (0, 0, 0, [0] * 4, [])
    s.send(np.int32(1), np.int64(2))  # numpy integers are positions
    assert state_of(s)[1:3] == (1, 1)


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
                                           ([0, 1], [1, 2], [0.5, 1.0]),
                                           ([0], [1], [-5]),
                                           ([0, 1], [1, 2], [3, -1]),
                                           ([0], [1], [2**63 - 1]),
                                           ([0], [1], [2**63])])
def test_send_at_rejects_a_bad_batch_and_charges_nothing(src, dst, ready):
    s = fresh(8, trace=True)
    s.clock[:] = range(8)
    with pytest.raises(ValueError):
        s.send_at(src, dst, ready)
    assert (s.energy, s.depth, s.messages, len(s.events)) == (0, 0, 0, 0)
    assert s.clock.tolist() == list(range(8))


LIMIT = 2 ** 63 - 1
AT_THE_LIMIT = {
    "send_round": lambda s: s.send_round([1], [2]),
    "send_rounds": lambda s: s.send_rounds([([1], [2]), ([0], [3])]),
    "send": lambda s: s.send(1, 2),
}


@pytest.mark.parametrize("path", sorted(AT_THE_LIMIT))
def test_a_send_from_a_clock_at_the_limit_raises_and_charges_nothing(path):
    # send_at raises clock 1 to 2**63 - 1; a message from it would arrive
    # at 2**63, which int64 cannot hold
    s = fresh(4, trace=True)
    s.send_at([0], [1], [LIMIT - 1])
    assert s.clock[1] == LIMIT
    before = (s.report(), list(s.events), s.clock.tolist())
    with pytest.raises(ValueError, match=r"departure clock 9223372036854775807 is not below"):
        AT_THE_LIMIT[path](s)
    assert (s.report(), list(s.events), s.clock.tolist()) == before


def limit_state(n=8):
    s = fresh(n, trace=True)
    s.send_at([0], [1], [LIMIT - 1])
    return s


def test_a_later_round_at_the_limit_raises_after_the_rounds_before_it():
    got, want = limit_state(), limit_state()
    rounds = [([0, 2], [3, 4]), ([3, 1], [5, 6]), ([5], [7])]
    with pytest.raises(ValueError, match="departure clock"):
        got.send_rounds(rounds)
    want.send_round(*rounds[0])
    with pytest.raises(ValueError, match="departure clock"):
        want.send_round(*rounds[1])
    assert state_of(got) == state_of(want)
    assert got.depth == LIMIT and min(e.depth for e in got.events) > 0


def elementwise_position_error(src, dst, n):
    """The error text of an elementwise range check: the positions of the
    first message with either end off the placement."""
    src, dst = np.asarray(src), np.asarray(dst)
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    i = int(bad.argmax())
    return f"position out of range: {src[i]} -> {dst[i]} with n={n}"


BATCH_KERNELS = {
    "send_round": lambda s, src, dst: s.send_round(src, dst),
    "send_at": lambda s, src, dst: s.send_at(src, dst, np.zeros(len(src), np.int64)),
}


@pytest.mark.parametrize("kernel", sorted(BATCH_KERNELS))
@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("dtype,value", [
    (np.int32, -1), (np.int32, 8), (np.int32, 2**31 - 1), (np.int32, -2**31),
    (np.int64, -1), (np.int64, 8), (np.int64, 2**63 - 1), (np.int64, -2**63),
    (np.uint64, 8), (np.uint64, 2**63), (np.uint64, 2**64 - 1)])
def test_out_of_range_positions_name_the_first_bad_message(kernel, side, dtype, value):
    s = fresh(8, trace=True)
    s.clock[:] = range(8)
    ends = {"src": np.array([1, 2, 3, 4], dtype), "dst": np.array([2, 3, 4, 5], dtype)}
    ends[side][1] = value
    ends["dst" if side == "src" else "src"][3] = 9  # a later bad message
    with pytest.raises(ValueError) as err:
        BATCH_KERNELS[kernel](s, ends["src"], ends["dst"])
    assert str(err.value) == elementwise_position_error(ends["src"], ends["dst"], 8)
    assert str(err.value).startswith(f"position out of range: {ends['src'][1]} -> ")
    assert (s.energy, s.depth, s.messages, len(s.events)) == (0, 0, 0, 0)
    assert s.clock.tolist() == list(range(8))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64, np.uint8])
def test_positions_of_any_integer_dtype_charge_alike(dtype):
    src, dst = [0, 5, 7, 3], [7, 0, 7, 3]
    got, want = fresh(8, trace=True), fresh(8, trace=True)
    got.send_round(np.array(src, dtype), np.array(dst, dtype))
    want.send_round(np.array(src), np.array(dst))
    assert state_of(got) == state_of(want)


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


BLOCK_EDGES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


def one_way_round(rng, n, count, up):
    """count messages from the lower half of [0, n) to the upper half, or
    back: no position both sends and receives, so the round charges like
    plain sends in array order."""
    low, high = rng.integers(0, n // 2, count), rng.integers(n // 2, n, count)
    return (low, high) if up else (high, low)


def send_one_at_a_time(sim, src, dst):
    for a, b in zip(src.tolist(), dst.tolist()):
        sim.send(a, b)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("count", BLOCK_EDGES)
@pytest.mark.parametrize("kernel", ["send_round", "send_rounds", "send_at"])
def test_batches_across_block_edges_charge_like_single_messages(kernel, count, trace):
    n = 4096
    rng = np.random.default_rng(count)
    got, want = fresh(n, trace=trace), fresh(n, trace=trace)
    got.clock[:] = want.clock[:] = rng.integers(0, 50, n)
    if kernel == "send_at":
        src, dst = rng.integers(0, n, count), rng.integers(0, n, count)
        ready = rng.integers(0, 100, count)
        got.send_at(src, dst, ready)
        for a, b, r in zip(src.tolist(), dst.tolist(), ready.tolist()):
            want.send_at([a], [b], [r])
    else:
        rounds = [one_way_round(rng, n, count, up) for up in (True, False, True)]
        if kernel == "send_round":
            for src, dst in rounds:
                got.send_round(src, dst)
        else:
            got.send_rounds(rounds)
        for src, dst in rounds:
            send_one_at_a_time(want, src, dst)
    assert state_of(got) == state_of(want)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_repeated_sweeps_across_block_edges_charge_like_single_messages(count, trace):
    # the range tree over [0, 2^j + count) with count <= 2^j has count
    # nodes at its deepest level; a level's senders never receive in it
    m = (1 << (count - 1).bit_length()) + count
    levels = list(_range_levels([0], [m - 1]))
    assert len(levels[-1][0]) == count
    rng = np.random.default_rng(count)
    got, want = fresh(m, trace=trace), fresh(m, trace=trace)
    got.clock[:] = want.clock[:] = rng.integers(0, 50, m)
    for _ in range(2):  # priced as charged, then from the kept costs
        all_reduce_barrier(got)
        for los, mids in reversed(levels):
            send_one_at_a_time(want, mids + 1, los)
        for los, mids in levels:
            send_one_at_a_time(want, los, mids + 1)
        assert state_of(got) == state_of(want)
    assert got._sweeps[m]


def test_wide_untraced_round_memory_budget():
    # one array of the round's length (its depths) plus a block's costs;
    # the parent priced the whole round at once and peaked at 5.0 MiB
    n = 131_071
    rng = np.random.default_rng(2)
    s = fresh(n)
    src, dst = rng.integers(0, n, n), rng.integers(0, n, n)
    tracemalloc.start()
    try:
        s.send_round(src, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20
    assert s.messages == n


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


@pytest.mark.parametrize("los,his,match", [
    # a float bound is not truncated to a position
    ([3.9], [7.2], "^range bounds must be integers$"),
    ([0, 8], [2], "^broadcast_ranges needs two 1-D bound arrays of equal length$"),
    ([[0, 8]], [[2, 9]], "^broadcast_ranges needs two 1-D bound arrays of equal length$"),
    # [0, 5] and [2, 7] overlap: position 7 would be left at clock 2
    ([0, 2], [5, 7], "^range \\[2, 7\\] does not start past \\[0, 5\\]$"),
    # disjoint, but not sorted by start
    ([8, 0], [9, 2], "^range \\[0, 2\\] does not start past \\[8, 9\\]$"),
])
def test_broadcast_ranges_rejects_bad_ranges_before_charging(los, his, match):
    s = fresh(16, trace=True)
    s.clock[:] = np.arange(16)
    with pytest.raises(ValueError, match=match):
        broadcast_ranges(s, los, his)
    assert state_of(s) == (0, 0, 0, list(range(16)), [])


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


def uncached_sweep(sim, m):
    """The sweep built afresh on every call: its range-tree levels, then
    one checked round per level, up and then down."""
    levels = list(_range_levels([0], [m - 1]))
    sim.send_rounds([(mids + 1, los) for los, mids in reversed(levels)]
                    + [(los, mids + 1) for los, mids in levels])


@pytest.mark.parametrize("kind", [CurveKind.HILBERT, CurveKind.ZORDER])
def test_cached_sweeps_charge_like_levels_built_afresh(kind):
    # clocks move between the sweeps, so a cache that held any clock, or
    # the costs of another m, would charge differently from the reference
    n, m = 300, 137
    rng = np.random.default_rng(11)
    got, want = fresh(n, kind, trace=True), fresh(n, kind, trace=True)
    got.clock[:] = want.clock[:] = rng.integers(0, 50, n)

    all_reduce_barrier(got)
    uncached_sweep(want, n)
    assert state_of(got) == state_of(want)
    for _ in range(3):
        src, dst = rng.integers(0, n, 40), rng.integers(0, n, 40)
        ready = rng.integers(0, 2 * got.depth, 40)
        for s in (got, want):
            s.send_round(src, dst)
            s.send_at(dst, src, ready)
    assert state_of(got) == state_of(want)
    all_reduce_barrier(got)
    uncached_sweep(want, n)
    assert state_of(got) == state_of(want)
    assert prefix_sum(got, list(range(m))) == [i * (i + 1) // 2 for i in range(m)]
    uncached_sweep(want, m)
    assert state_of(got) == state_of(want)
    assert got._sweeps[m] is None  # swept once: nothing kept
    all_reduce_barrier(got)
    uncached_sweep(want, n)
    assert state_of(got) == state_of(want)
    prefix_sum(got, list(range(m)))
    uncached_sweep(want, m)
    assert state_of(got) == state_of(want)
    assert sorted(got._sweeps) == [m, n] and got._sweeps[m] and got._sweeps[n]


def test_sweep_cache_belongs_to_one_state():
    # the same n on two curves prices the same messages differently
    states = [fresh(64, kind, trace=True) for kind in (CurveKind.HILBERT, CurveKind.ZORDER)]
    refs = [fresh(64, kind, trace=True) for kind in (CurveKind.HILBERT, CurveKind.ZORDER)]
    for _ in range(2):
        for got, want in zip(states, refs):
            all_reduce_barrier(got)
            uncached_sweep(want, 64)
            assert state_of(got) == state_of(want)
    assert states[0].energy != states[1].energy


def test_permute_identity_free_and_reverse_pinned():
    s = fresh(4)
    permute(s, [0, 1, 2, 3])
    assert s.energy == 0
    s = fresh(4)
    permute(s, [3, 2, 1, 0])
    # distances between opposite cells of the k=1 Hilbert square
    assert s.energy == 4
    assert s.depth == 1


def test_permute_rejects_duplicate_targets():
    s = fresh(4, trace=True)
    with pytest.raises(ValueError, match="duplicate permutation target 2"):
        permute(s, [2, 2])
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def test_permute_rejects_out_of_range_before_charging():
    # targets off the grid, or more targets than positions
    s = fresh(4, trace=True)
    for targets in ([1, 4], np.array([0, -1]), [0, 1, 2, 3, 0]):
        with pytest.raises(ValueError, match="out of range"):
            permute(s, targets)
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def test_permute_names_a_uint64_target_as_given():
    # 2**64 - 1 wraps to -1 in int64
    s = fresh(4, trace=True)
    with pytest.raises(ValueError) as err:
        permute(s, np.array([1, 2 ** 64 - 1], np.uint64))
    assert str(err.value) == "permutation entry 1 -> 18446744073709551615 out of range"
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def test_permute_memory_budget():
    # marks in a bool array, not an n-sized int64 bincount
    n = 131_071
    targets = np.random.default_rng(4).permutation(n)
    s = fresh(n)
    tracemalloc.start()
    try:
        permute(s, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20
    assert s.messages == n


def test_permute_rejects_non_integer_targets_before_charging():
    # a float target is not truncated to a position
    s = fresh(4, trace=True)
    for targets in ([0.5, 1.7, 2.2, 3.9], np.array([0.0, 1.0, 2.0, 3.0]), [True, False]):
        with pytest.raises(ValueError, match="must be integers"):
            permute(s, targets)
    assert state_of(s) == (0, 0, 0, [0] * 4, [])
    permute(s, np.array([], dtype=float))
    permute(s, np.array([3, 2, 1, 0], dtype=np.uint8))
    assert s.messages == 4


def test_permute_energy_diameter_bound():
    n = 256
    s = fresh(n)
    permute(s, [(i * 97 + 13) % n for i in range(n)])
    assert s.energy <= 2 * n * (n ** 0.5)


def test_compact_examples():
    s = fresh(16)
    dest, count = compact(s, [False] * 16)
    assert count == 0 and dest.tolist() == [-1] * 16
    s = fresh(16)
    dest, count = compact(s, [True] * 16)
    assert count == 16 and dest.tolist() == list(range(16))
    s = fresh(16)
    dest, count = compact(s, [i % 2 == 0 for i in range(16)])
    assert count == 8
    assert dest.tolist() == [i // 2 if i % 2 == 0 else -1 for i in range(16)]


@given(st.data())
def test_compact_charges_like_prefix_sum_then_the_routing_round(data):
    n = data.draw(st.integers(1, 80))
    m = data.draw(st.integers(1, n))
    kind = data.draw(st.sampled_from([CurveKind.HILBERT, CurveKind.ZORDER]))
    start = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    got, want = fresh(n, kind, trace=True), fresh(n, kind, trace=True)
    got.clock[:] = want.clock[:] = start
    for _ in range(2):  # the second sweep of m reads the cached levels
        flags = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        dest, count = compact(got, flags)
        counts = prefix_sum(want, [int(f) for f in flags])
        src = np.flatnonzero(flags)
        want.send_round(src, np.array(counts, dtype=np.int64)[src] - 1)
        assert state_of(got) == state_of(want)
        assert got.report() == want.report()
        assert dest.dtype == np.int64
        assert dest.tolist() == [c - 1 if f else -1 for c, f in zip(counts, flags)]
        assert count == counts[-1]


def test_compact_rejects_2d_flags_before_charging():
    s = fresh(4, trace=True)
    with pytest.raises(ValueError, match="^compact needs a 1-D sequence of flags$"):
        compact(s, [[True, False], [False, True]])
    assert state_of(s) == (0, 0, 0, [0] * 4, [])


def test_compact_empty_and_oversized_flags_charge_nothing():
    s = fresh(4, trace=True)
    s.clock[:] = [3, 1, 4, 1]
    dest, count = compact(s, [])
    assert dest.dtype == np.int64 and dest.tolist() == [] and count == 0
    for flags in ([True] * 5, np.zeros(5, dtype=bool)):
        with pytest.raises(ValueError, match="^more values than occupied positions$"):
            compact(s, flags)
    with pytest.raises(ValueError, match="^more values than occupied positions$"):
        prefix_sum(s, [1] * 5)
    assert state_of(s) == (0, 0, 0, [3, 1, 4, 1], [])


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
    """Scalar sends, a send_at batch, a narrow round and a wide round on
    one grid."""
    s = fresh(64, trace=True)
    s.send(np.int64(3), 40)
    s.send_at([40], [7], [5])
    s.send_round(np.array([7, 40, 3]), np.array([9, 9, 63]))
    rng = np.random.default_rng(5)
    s.send_round(rng.integers(0, 64, 50), rng.integers(0, 64, 50))
    for a, b in ((9, 1), (1, 2), (2, 30), (30, 9)):
        s.send(a, b)
    return s


def test_dump_trace_matches_json_dumps_per_event(tmp_path):
    s = mixed_traced_run()
    assert len(s.events) == s.messages == 59
    s.dump_trace(tmp_path / "got.jsonl")
    reference_dump(s.events, tmp_path / "want.jsonl")
    want = (tmp_path / "want.jsonl").read_bytes()
    assert (tmp_path / "got.jsonl").read_bytes() == want
    assert want.count(b"\n") == 59


# the writer the array formatter replaced: one % format per event
TRACE_LINE = '{"src": %d, "dst": %d, "cost": %d, "depth": %d}\n'
INT64_EDGES = [0, 1, 9, 10, 99_999, 100_000, 2 ** 31, 2 ** 33, 2 ** 63 - 1,
               -1, -9, -10, -99_999, -(2 ** 63) + 1, -(2 ** 63)]
int64s = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-(2 ** 63), 2 ** 63 - 1))


def event_blocks(values):
    return st.lists(st.tuples(values, values, values, values), max_size=40)


@given(st.one_of(event_blocks(st.integers(0, 10 ** 5 - 1)), event_blocks(int64s)))
def test_trace_lines_equal_one_percent_format_per_event(rows):
    block = np.array(rows, dtype=np.int64).reshape(-1, 4)
    assert _trace_lines(block) == "".join(TRACE_LINE % row for row in rows).encode()


@given(st.data())
def test_trace_lines_of_blocks_mixing_table_and_wide_fields(data):
    # each field takes its slot by its own range: one-word table slots and
    # wider slots for negative or large values side by side in one line
    wide = data.draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(
        lambda flags: any(flags) and not all(flags)))
    fields = [int64s if flag else st.integers(0, 10 ** 5 - 1) for flag in wide]
    rows = data.draw(st.lists(st.tuples(*fields), min_size=1, max_size=40))
    block = np.array(rows, dtype=np.int64)
    assert _trace_lines(block) == "".join(TRACE_LINE % row for row in rows).encode()


def test_table_fields_never_take_the_divide_by_ten_path(monkeypatch, tmp_path):
    sim._digit_words()  # the table itself is built by _digits

    def fail(values, width):
        raise AssertionError("_digits called for a block in [0, 10**5)")

    monkeypatch.setattr(sim, "_digits", fail)
    rows = [(0, 99_999, 10, 9), (12, 3, 0, 99_999), (99_998, 100, 7, 1)]
    block = np.array(rows, dtype=np.int64)
    assert _trace_lines(block) == "".join(TRACE_LINE % row for row in rows).encode()
    s = mixed_traced_run()
    s.dump_trace(tmp_path / "got.jsonl")
    reference_dump(s.events, tmp_path / "want.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


LAZY_TABLE = """
import sys
import numpy as np
import spatialtree.cli
from spatialtree import sim
assert sim._digit_words.cache_info().currsize == 0, "import built the digit table"
s = sim.SimState(sim.Placement.for_size("hilbert", 8), trace=True)
s.send(0, 7)
s.dump_trace(sys.argv[1])
table = sim._digit_words()
assert sim._digit_words.cache_info().currsize == 1
assert table.dtype == np.uint64 and table.shape == (10 ** 5,)
assert not table.flags.writeable
text = table.view(np.uint8).reshape(-1, 8)
assert (text[:, :5] == sim._digits(np.arange(10 ** 5), 5)).all() and not text[:, 5:].any()
"""


def test_the_digit_table_is_built_by_the_first_dump_and_read_only(tmp_path):
    src = str(Path(spatialtree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", LAZY_TABLE, str(tmp_path / "trace.jsonl")],
                   env=env, check=True, timeout=60)
    s = fresh(8, trace=True)
    s.send(0, 7)
    reference_dump(s.events, tmp_path / "want.jsonl")
    assert (tmp_path / "trace.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_dump_trace_across_chunk_edges_matches_json_dumps(tmp_path, count):
    # the last event departs late, so the last chunk's depths overflow the
    # digit table
    rng = np.random.default_rng(count)
    ready = rng.integers(0, 50, count)
    ready[-1] = 2 ** 40
    s = fresh(64, trace=True)
    s.send_at(rng.integers(0, 64, count), rng.integers(0, 64, count), ready)
    s.dump_trace(tmp_path / "got.jsonl")
    reference_dump(s.events, tmp_path / "want.jsonl")
    want = (tmp_path / "want.jsonl").read_bytes()
    assert (tmp_path / "got.jsonl").read_bytes() == want
    assert want.count(b"\n") == count


def test_traced_treefix_on_a_caterpillar_dumps_like_json_dumps(tmp_path):
    t = gen_tree("caterpillar", 4000, seed=1)
    lay = light_first_layout(t, CurveKind.ZORDER)
    s = SimState(lay.placement(), trace=True)
    treefix_topdown(s, t, lay, [v % 7 - 3 for v in range(t.n)], 1)
    s.dump_trace(tmp_path / "got.jsonl")
    reference_dump(s.events, tmp_path / "want.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert len(s.events) > _BLOCK


def test_cli_trace_file_is_json_dumps_of_every_event(tmp_path, capsys, monkeypatch):
    calls = []
    execute = cli._execute

    def keep_call(args, t, curve, dump, trace):
        calls.append((args, t, curve, trace))
        return execute(args, t, curve, dump, trace)

    monkeypatch.setattr(cli, "_execute", keep_call)
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--algorithm", "treefix", "--kind", "caterpillar",
                 "--n", "4095", "--trace", str(trace)]) == 0
    ((args, t, curve, sink),) = calls
    assert sink.name == str(trace) and sink.closed  # the run streamed to the file
    # the same run with its trace kept in memory
    sim, _lines, _dist = execute(args, t, curve, False, True)
    reference_dump(sim.events, tmp_path / "want.jsonl")
    got = trace.read_bytes()
    assert got == (tmp_path / "want.jsonl").read_bytes()
    lines = got.decode().splitlines()
    assert len(lines) == sim.messages > _BLOCK
    assert all(set(json.loads(line)) == {"src", "dst", "cost", "depth"} for line in lines)


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
    # with --out, result lines go to stdout and the report to the file;
    # without it, stdout is the report alone and result lines go to stderr
    report = tmp_path / "report.json"
    argv = ["--kind", "random-attachment", "--n", "40", "--format", "json"]
    for algorithm in ALGORITHMS:
        assert main(["run", "--algorithm", algorithm, *argv, "--out", str(report)]) == 0
        (row,) = json.loads(report.read_text())
        assert row["algorithm"] == algorithm and row["messages"] > 0
        assert all(type(row[key]) is int for key in ("energy", "depth", "messages"))
        lines = capsys.readouterr().out
        assert main(["run", "--algorithm", algorithm, *argv]) == 0
        out = capsys.readouterr()
        (same,) = json.loads(out.out)
        assert {**same, "wall_time_ms": 0} == {**row, "wall_time_ms": 0}
        assert out.err == lines


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


def reference_trace(kind, n, batches):
    """The events of scalar (src, dst) sends and (src array, dst array)
    rounds, worked out one message at a time from the curve's cells."""
    k = Placement.for_size(kind, n).k
    rows, cols = (a.tolist() for a in reference_coords(kind, k, np.arange(n)))
    clock = [0] * n
    events = []
    for src, dst in batches:
        src, dst = np.atleast_1d(src).tolist(), np.atleast_1d(dst).tolist()
        sent = [clock[a] + 1 for a in src]  # start-of-round clocks
        for a, b, d in zip(src, dst, sent):
            events.append(TraceEvent(a, b, abs(rows[a] - rows[b]) + abs(cols[a] - cols[b]), d))
            clock[b] = max(clock[b], d)
    return events


def mixed_batches(count, tail, n=200, seed=0):
    """count messages: 37 scalar sends, a round of 5,000, 20 scalar sends,
    then the rest as one round (tail "round") or as scalar sends."""
    rng = np.random.default_rng(seed)

    def scalars(m):
        return [tuple(pair) for pair in rng.integers(0, n, (m, 2)).tolist()]

    def round_(m):
        return [(rng.integers(0, n, m), rng.integers(0, n, m))]

    rest = count - 5057
    return (scalars(37) + round_(5000) + scalars(20)
            + (round_(rest) if tail == "round" else scalars(rest)))


def charge(s, batches):
    for src, dst in batches:
        if np.ndim(src) == 0:
            s.send(src, dst)
        else:
            s.send_round(src, dst)


@pytest.mark.parametrize("tail", ["round", "scalar"])
@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_chunked_trace_indexes_and_iterates_like_a_list(count, tail):
    # the tail's round or scalar sends end at, or cross, the first chunk's edge
    batches = mixed_batches(count, tail)
    s = fresh(200, trace=True)
    charge(s, batches)
    want = reference_trace(CurveKind.HILBERT, 200, batches)
    events = s.events
    assert len(events) == len(want) == count == s.messages
    assert list(events) == want and events == want
    for i in (0, 36, 37, 5056, 5057, _BLOCK - 1, _BLOCK, count - 1):
        if i < count:
            assert events[i] == want[i] == events[i - count]
    for i in (count, -count - 1, 2 * _BLOCK, 10 ** 9):
        with pytest.raises(IndexError):
            events[i]
    assert all(type(v) is int for v in events[count - 1])
    assert sum(e.cost for e in events) == s.energy


def test_traces_with_the_same_records_on_different_curves_differ():
    # positions 1 and 2 are neighbours on the Hilbert curve, not in Z-order
    a, b, c = (fresh(16, kind, trace=True)
               for kind in (CurveKind.HILBERT, CurveKind.ZORDER, CurveKind.HILBERT))
    for s in (a, b, c):
        s.send(1, 2)
        s.send_round(np.array([2, 5]), np.array([1, 9]))
    assert [(e.src, e.dst, e.depth) for e in a.events] == \
        [(e.src, e.dst, e.depth) for e in b.events]
    assert a.events != b.events and not a.events == b.events
    assert a.events == c.events and list(a.events) != list(b.events)


def test_a_streamed_trace_writes_what_an_in_memory_dump_writes(tmp_path):
    batches = mixed_batches(3 * _BLOCK + 5, "round")
    kept = fresh(200, trace=True)
    charge(kept, batches)
    kept.dump_trace(tmp_path / "want.jsonl")
    with open(tmp_path / "got.jsonl", "wb") as fh:
        streamed = fresh(200, trace=fh)
        assert streamed.events is None
        charge(streamed, batches[:40])
        streamed.flush_trace()  # a flush in mid-run; charging goes on after it
        charge(streamed, batches[40:])
        streamed.flush_trace()
        streamed.flush_trace()  # nothing left to write
        with pytest.raises(ValueError, match="streams"):
            streamed.dump_trace(tmp_path / "other.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert streamed.report() == kept.report()
    with pytest.raises(ValueError, match="does not stream"):
        kept.flush_trace()


def test_a_text_mode_trace_file_is_rejected_at_construction(tmp_path):
    # a text sink would take the charges, then fail at its first write
    with open(tmp_path / "trace.jsonl", "w") as fh:
        for sink in (io.StringIO(), fh):
            with pytest.raises(ValueError, match="^a streamed trace needs a file opened in "
                                                 "binary mode$"):
                fresh(16, trace=sink)
    assert (tmp_path / "trace.jsonl").read_bytes() == b""


@pytest.mark.parametrize("trace", [True, "file"])
def test_a_traced_state_needs_fewer_than_2_31_positions(tmp_path, trace):
    # raised before the clocks or the cell table are allocated
    with open(tmp_path / "trace.jsonl", "wb") as fh:
        for n in (2 ** 31, 2 ** 32):
            with pytest.raises(ValueError, match="fewer than 2\\*\\*31 positions"):
                SimState(Placement(CurveKind.HILBERT, 16, n),
                         trace=fh if trace == "file" else trace)


def held_by_a_run(batches, trace):
    """Bytes a run's SimState still holds once the run is done, and its
    tracemalloc peak, both over the memory in use before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = fresh(4096, trace=trace)
        charge(s, batches)
        if hasattr(trace, "write"):
            s.flush_trace()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - base, peak - base, s


def test_trace_memory_is_one_chunk_streamed_and_16_bytes_an_event_in_memory():
    rng = np.random.default_rng(4)
    batches = []
    for width in rng.integers(1, 3 * _BLOCK, 80).tolist():
        batches.append((rng.integers(0, 4096, width), rng.integers(0, 4096, width)))
        batches.append((int(rng.integers(0, 4096)), int(rng.integers(0, 4096))))
    sim._digit_words()  # the formatter's shared table is built once per process
    chunk = _BLOCK * 16
    untraced, untraced_peak, plain = held_by_a_run(batches, False)
    with open(os.devnull, "wb") as sink:
        streamed, streamed_peak, s = held_by_a_run(batches, sink)
    assert s.messages == plain.messages >= 500_000
    assert streamed - untraced < 2 * chunk
    # formatting a chunk's lines takes a few short-lived buffers
    assert streamed_peak - untraced_peak < 4 * 2 ** 20
    kept, _, s = held_by_a_run(batches, True)
    assert kept - untraced <= 16 * s.messages + chunk


def test_energy_additivity():
    s = fresh(64, trace=True)
    broadcast_range(s, 0, 63)
    prefix_sum(s, [1] * 64)
    assert s.energy == sum(e.cost for e in s.events)
    assert s.depth == max(e.depth for e in s.events)
    assert s.messages == len(s.events)


def test_memory_audit_reports_not_fatal():
    s = fresh(8, audit_memory=True, memory_budget=4)
    note_words(s, 0, 3)
    note_words(s, 1, 9)
    assert s.max_words == 9
    assert s.violations == [(1, 9)]
    s2 = fresh(8)  # audit off: no tracking
    note_words(s2, 0, 99)
    assert s2.max_words == 0


@pytest.mark.parametrize("words", [3, 4, 9])
@pytest.mark.parametrize("positions", [[], [5], [2, 0, 7, 2], np.array([], dtype=np.intc),
                                       np.array([2, 0, 7, 2], dtype=np.intc)])
def test_note_words_many_equals_one_call_per_position(positions, words):
    got = fresh(8, audit_memory=True, memory_budget=4)
    want = fresh(8, audit_memory=True, memory_budget=4)
    for s in (got, want):
        note_words(s, 6, 2)
    got.note_words_many(positions, words)
    for pos in positions:
        note_words(want, pos, words)
    assert (got.max_words, got.violations) == (want.max_words, want.violations)
    assert all(type(pos) is int for pos, _ in got.violations)


@pytest.mark.parametrize("kind,k,n,match", [
    (CurveKind.HILBERT, 1, 10, "an order-1 curve places 1 to 4 positions, not 10"),
    (CurveKind.ZORDER, 1, 0, "places 1 to 4 positions, not 0"),
    (CurveKind.HILBERT, 16, 2 ** 32 + 1, "places 1 to 4294967296 positions"),
    (CurveKind.HILBERT, -1, 1, "k=-1 outside 0..31"),
    (CurveKind.HILBERT, 32, 1, "k=32 outside 0..31"),
    ("peano", 1, 1, "not a valid CurveKind"),
    (CurveKind.HILBERT, 1.0, 1, "order must be an integer"),
    (CurveKind.HILBERT, 1, 2.0, "size must be an integer"),
    (CurveKind.HILBERT, True, 1, "order must be an integer"),
])
def test_a_placement_off_its_curve_is_rejected(kind, k, n, match):
    # Placement(HILBERT, 1, 10) used to be taken, and its first round
    # raised IndexError from the 4-cell table
    with pytest.raises(ValueError, match=match):
        Placement(kind, k, n)


def test_a_placement_filling_its_curve_is_taken():
    for kind in (CurveKind.HILBERT, "zorder"):
        for k, n in ((0, 1), (1, 4), (16, 2 ** 32), (31, 1)):
            assert Placement(kind, k, n).n == n
    assert Placement(CurveKind.HILBERT, np.int64(2), np.int32(16)).k == 2
