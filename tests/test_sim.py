import json
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialtree.curves import CurveKind, curve_distance
from spatialtree.sim import (Placement, SimState, TraceEvent, all_reduce_barrier,
                             broadcast_range, compact, permute, prefix_sum,
                             reduce_range)


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
    s.send_at(0, 3, 5)
    assert s.clock[3] == 6 and s.depth == 6 and s.clock[0] == 0
    s.send_at(1, 3, 2)  # an earlier arrival does not lower the clock
    assert s.clock[3] == 6 and s.messages == 2
    with pytest.raises(ValueError):
        s.send_at(0, 4, 0)


def test_send_rejects_source_past_the_end():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send(4, 0)
    assert s.messages == 0


def reference_round(sim, src, dst):
    """Scalar sends that all depart at the start-of-round clocks."""
    start = list(sim.clock)
    for a, b in zip(src, dst):
        sim.send_at(a, b, start[a])


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
    assert s.clock == [2, 3, 0, 1]
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
    assert (s.energy, s.depth, s.messages, s.clock, s.events) == before


def test_send_round_rejects_malformed_arrays():
    s = fresh(4)
    with pytest.raises(ValueError):
        s.send_round(np.array([0, 1]), np.array([1]))
    with pytest.raises(ValueError):
        s.send_round(np.array([0.0]), np.array([1.0]))
    assert s.messages == 0


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
    assert (got.energy, got.depth, got.messages, got.clock) == \
        (want.energy, want.depth, want.messages, want.clock)
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
