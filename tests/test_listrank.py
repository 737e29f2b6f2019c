import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from spatialtree.cli import _random_chain
from spatialtree.curves import CurveKind
from spatialtree.listrank import (ChainError, list_rank, subtree_sizes_via_tour,
                                  tour_links)
from spatialtree.rng import Lcg
from spatialtree.sim import Placement, SimState
from spatialtree.trees import RootedTree, gen_tree, light_first_csr, subtree_sizes
from test_rng import next_bit

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def sim_for(m):
    return SimState(Placement.for_size(CurveKind.HILBERT, m))


class RoundRecorder(SimState):
    """A SimState that records each ``send_rounds`` call: its (src, dst)
    rounds and the messages and energy the call charged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def send_rounds(self, rounds):
        rounds = [(np.array(src), np.array(dst)) for src, dst in rounds]
        messages, energy = self.messages, self.energy
        super().send_rounds(rounds)
        self.calls.append((rounds, self.messages - messages, self.energy - energy))


def iteration_stats(sim: RoundRecorder):
    """(live, messages, energy) of each contraction iteration of one
    ``list_rank`` on ``sim``, read off its recorded rounds.

    Each of the k iterations charges an announce round, then a splice
    round, and the replay charges one round per iteration, last first:
    the first 2k calls and the last k.  The tail never announces and is
    never spliced out, so live is one more than the announce round's size.
    """
    assert all(len(rounds) == 1 for rounds, _, _ in sim.calls)
    k, rest = divmod(len(sim.calls), 3)
    assert rest == 0
    contraction, replay = sim.calls[:2 * k], sim.calls[2 * k:]
    splices = contraction[1::2]
    # the replay sends each splice round back, jumper to removed element
    for (((removed, jumper),), _, _), (((src, dst),), _, _) in zip(reversed(splices), replay):
        assert src.tolist() == jumper.tolist() and dst.tolist() == removed.tolist()
    return [(len(announce[0][0]) + 1, m1 + m2, e1 + e2)
            for (announce, m1, e1), (_, m2, e2) in zip(contraction[::2], splices)]


def random_chain(m, seed):
    rng = Lcg(seed)
    order = list(range(m))
    for i in range(m - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    succ = [-1] * m
    for i in range(m - 1):
        succ[order[i]] = order[i + 1]
    return succ, order[0], order


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 1000])
def test_cli_chain_equals_scalar_draws(m, seed):
    assert _random_chain(m, seed) == random_chain(m, seed)


@dataclass
class EulerTour:
    """Vertex-visit sequence of length 2n-1, with first/last occurrence indices."""

    order: list[int]
    first: list[int]
    last: list[int]


def euler_tour(t: RootedTree, child_order: list[list[int]] | None = None) -> EulerTour:
    """Edge-duplication tour, the reference for ``tour_links``: from v,
    visit children in order, returning to v between children.  Starts and
    ends at the root."""
    ch = child_order if child_order is not None else t.children
    n = t.n
    order: list[int] = []
    first = [-1] * n
    last = [-1] * n
    stack: list[tuple[int, int]] = [(t.root, 0)]
    first[t.root] = 0
    last[t.root] = 0
    order.append(t.root)
    while stack:
        v, i = stack.pop()
        if i < len(ch[v]):
            stack.append((v, i + 1))
            c = ch[v][i]
            first[c] = len(order)
            last[c] = len(order)
            order.append(c)
            stack.append((c, 0))
        elif t.parent[v] >= 0 and stack:
            p = stack[-1][0]
            last[p] = len(order)
            order.append(p)
    return EulerTour(order, first, last)


def test_euler_tour_examples():
    single = euler_tour(RootedTree([-1]))
    assert single.order == [0]
    tour = euler_tour(gen_tree("path", 3))
    assert tour.order == [0, 1, 2, 1, 0]
    t = RootedTree(list(FIGURE_PARENTS))
    ptr, kids = light_first_csr(t, subtree_sizes(t))
    sized = euler_tour(t, [kids[lo:hi].tolist() for lo, hi in zip(ptr, ptr[1:])])
    assert sized.order[:8] == [0, 1, 2, 1, 3, 1, 0, 4]
    assert len(sized.order) == 2 * t.n - 1


def test_euler_tour_first_last_give_sizes():
    for trial in range(30):
        t = gen_tree("random-attachment", 5 + trial * 7, seed=trial)
        tour = euler_tour(t)
        sizes = subtree_sizes(t)
        for v in range(t.n):
            assert (tour.last[v] - tour.first[v]) // 2 + 1 == sizes[v]


def test_tour_links_match_plain_tour():
    for trial in range(25):
        t = gen_tree("random-attachment", 3 + trial * 5, seed=trial)
        succ, head, _ = tour_links(t)
        # walk the chain and decode the visited vertex of each slot
        seq = []
        cur = head
        while cur != -1:
            seq.append(cur if cur < t.n else None)
            cur = succ[cur]
        assert len(seq) == 2 * t.n - 1
        expect = euler_tour(t).order
        got = [s for s in seq]
        # first-visit slots carry vertex ids; return slots match by position
        for i, v in enumerate(got):
            if v is not None:
                assert expect[i] == v


def test_list_rank_trivial_and_small():
    assert list_rank(sim_for(1), [-1], 0, seed=5).tolist() == [0]
    s = sim_for(5)
    assert list_rank(s, [1, 2, 3, 4, -1], 0, seed=5).tolist() == [0, 1, 2, 3, 4]


def test_list_rank_matches_sequential_oracle():
    rng = Lcg(17)
    for trial in range(100):
        m = 1 + rng.next_below(512)
        succ, head, order = random_chain(m, seed=trial)
        ranks = list_rank(sim_for(m), succ, head, seed=trial * 31 + 1)
        assert all(ranks[e] == i for i, e in enumerate(order))


def test_list_rank_rejects_malformed_chains():
    with pytest.raises(ChainError):
        list_rank(sim_for(4), [1, 0, 3, -1], 0, seed=1)  # 2-cycle
    with pytest.raises(ChainError):
        list_rank(sim_for(4), [2, 2, 3, -1], 0, seed=1)  # two preds
    with pytest.raises(ChainError):
        list_rank(sim_for(4), [1, 2, 3, 9], 0, seed=1)  # successor range
    with pytest.raises(ChainError):
        list_rank(sim_for(4), [1, -1, 3, 2], 0, seed=1)  # chain plus 2-cycle


def test_list_rank_rejects_non_integer_successors_before_charging():
    # a float successor is not truncated to an element
    for succ in ([1.5, 2.2, 3.9, -1], np.array([1.0, 2.0, 3.0, -1.0])):
        sim = SimState(Placement.for_size(CurveKind.HILBERT, 4), trace=True)
        with pytest.raises(ValueError, match="must be integers"):
            list_rank(sim, succ, 0, seed=1)
        assert (sim.messages, sim.energy, sim.depth, len(sim.events)) == (0, 0, 0, 0)


@pytest.mark.parametrize("succ,head,match", [
    ([[1, -1], [-1, 0]], 0, "^successors must be a 1-D sequence$"),
    (np.array(-1), 0, "^successors must be a 1-D sequence$"),
    ([1, -1], True, "^head must be an integer, not True$"),
    ([1, -1], 0.0, "^head must be an integer, not 0.0$"),
    ([1, -1], "0", "^head must be an integer, not '0'$"),
])
def test_list_rank_rejects_a_bad_shape_or_head_before_charging(succ, head, match):
    sim = SimState(Placement.for_size(CurveKind.HILBERT, 4), trace=True)
    with pytest.raises(ValueError, match=match):
        list_rank(sim, succ, head, seed=1)
    assert (sim.messages, sim.energy, sim.depth, len(sim.events)) == (0, 0, 0, 0)


def test_list_rank_takes_a_numpy_integer_head():
    ranks = list_rank(sim_for(3), np.array([-1, 0, 1]), np.int32(2), seed=1)
    assert ranks.tolist() == [2, 1, 0]


@pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 - 1])
def test_list_rank_names_a_uint64_successor_as_given(value):
    # in int64, 2**64 - 1 wraps to -1 and read as a tail
    sim = SimState(Placement.for_size(CurveKind.HILBERT, 2), trace=True)
    with pytest.raises(ChainError, match=f"^successor {value} of element 1 out of range$"):
        list_rank(sim, np.array([1, value], np.uint64), 0, 1)
    assert (sim.messages, len(sim.events)) == (0, 0)


def test_list_rank_memory_budget():
    # the parent peaked at 14.5 MiB with m-sized jumper and offset arrays
    m = 131_071
    order = np.random.default_rng(4).permutation(m)
    succ = np.full(m, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    sim = sim_for(m)
    Lcg(0).next_bits(m)  # the shared jump table is grown before measuring
    tracemalloc.start()
    try:
        rank = list_rank(sim, succ, int(order[0]), seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20
    assert (rank[order] == np.arange(m)).all()


def test_list_rank_rejects_a_long_cycle_beside_the_chain():
    # the cycle is long enough to go through contraction iterations
    m = 200
    succ = [1, -1] + [3 + i for i in range(m - 3)] + [2]
    with pytest.raises(ChainError):
        list_rank(sim_for(m), succ, 0, seed=3)


def test_list_rank_contraction_iterations_bounded():
    for n in (256, 1024, 4096):
        for seed in range(12):
            succ, head, _ = random_chain(n, seed=seed)
            s = sim_for(n)
            list_rank(s, succ, head, seed=seed + 1000)
            assert s.rounds <= 8 * math.log2(n)


def test_list_rank_per_iteration_message_and_energy_bounds():
    n = 1024
    succ, head, _ = random_chain(n, seed=3)
    s = RoundRecorder(Placement.for_size(CurveKind.HILBERT, n), trace=True)
    list_rank(s, succ, head, seed=9)
    stats = iteration_stats(s)
    # diameter bound: every message is at most 2*sqrt(grid cells) long
    side = 2 ** s.placement.k
    assert all(e.cost <= 2 * side for e in s.events)
    assert s.energy <= 16 * n * math.sqrt(n)  # sum of per-iteration bounds
    for live, messages, energy in stats:
        assert messages <= 4 * live
        assert energy <= 16 * live * math.sqrt(n)


def test_list_rank_iteration_stats_pinned():
    succ, head, _ = random_chain(100, seed=3)
    s = RoundRecorder(Placement.for_size(CurveKind.HILBERT, 100))
    list_rank(s, succ, head, seed=9)
    assert iteration_stats(s) == [(100, 124, 1009), (75, 90, 690), (59, 74, 553),
                     (43, 53, 444), (32, 38, 283), (25, 29, 206), (20, 20, 125),
                     (19, 22, 141), (15, 18, 93), (11, 13, 72), (8, 8, 53)]
    assert (s.energy, s.depth, s.messages, s.rounds) == (4416, 23, 588, 11)


def list_rank_reference(sim, succ, head, seed, iteration_stats):
    """Element-at-a-time list ranking; rounds depart at start-of-round clocks."""
    def round_(pairs):
        start = list(sim.clock)
        for a, b in pairs:
            sim.send_at([a], [b], [start[a]])

    m = len(succ)
    rng = Lcg(seed)
    nxt = list(succ)
    pred = [-1] * m
    for x, y in enumerate(nxt):
        if y >= 0:
            pred[y] = x
    weight = [1] * m
    src = [-1] * m
    delta = [0] * m
    live = list(range(m))
    removed_per_iter = []
    while len(live) > max(4, math.ceil(math.log2(m))):
        msg0, en0 = sim.messages, sim.energy
        coin = {x: next_bit(rng) for x in live}
        round_([(x, nxt[x]) for x in live if nxt[x] >= 0])
        removed = [y for y in live if y != head and coin[y] == 1
                   and nxt[y] >= 0 and coin[nxt[y]] == 0]
        round_([(y, pred[y]) for y in removed])
        for y in removed:
            p, z = pred[y], nxt[y]
            delta[y] = weight[p]
            weight[p] += weight[y]
            nxt[p] = z
            pred[z] = p
            src[y] = p
        removed_per_iter.append(removed)
        iteration_stats.append((len(live), sim.messages - msg0, sim.energy - en0))
        gone = set(removed)
        live = [x for x in live if x not in gone]
        sim.rounds += 1
    rank = [0] * m
    cur = head
    while nxt[cur] >= 0:
        sim.send(cur, nxt[cur])
        rank[nxt[cur]] = rank[cur] + weight[cur]
        cur = nxt[cur]
    for removed in reversed(removed_per_iter):
        for y in removed:
            sim.send(src[y], y)
            rank[y] = rank[src[y]] + delta[y]
    return rank


@pytest.mark.parametrize("m", [2, 17, 100, 1000])
def test_list_rank_matches_element_at_a_time_reference(m):
    for seed in range(3):
        succ, head, _ = random_chain(m, seed=seed)
        got = RoundRecorder(Placement.for_size(CurveKind.ZORDER, m), trace=True)
        want = SimState(Placement.for_size(CurveKind.ZORDER, m), trace=True)
        got.clock[:] = [x % 5 for x in range(m)]
        want.clock[:] = got.clock
        want_stats = []
        ranks = list_rank(got, succ, head, seed + 50)
        assert ranks.tolist() == list_rank_reference(want, succ, head, seed + 50, want_stats)
        assert iteration_stats(got) == want_stats
        assert got.report() == want.report() and got.clock.tolist() == want.clock.tolist()
        assert got.events == want.events


def test_list_rank_cost_regression_anchors():
    # constants pinned from measurements, with headroom
    for n in (256, 1024, 4096):
        succ, head, _ = random_chain(n, seed=11)
        s = sim_for(n)
        list_rank(s, succ, head, seed=12)
        assert s.energy <= 8 * n * math.sqrt(n)
        assert s.depth <= 10 * math.log2(n)


def test_subtree_sizes_via_tour_examples():
    t = gen_tree("path", 3)
    s = sim_for(2 * 3 - 1)
    assert subtree_sizes_via_tour(s, t, seed=2).tolist() == [3, 2, 1]
    leaf = RootedTree([-1])
    assert subtree_sizes_via_tour(sim_for(1), leaf, seed=2).tolist() == [1]


def test_subtree_sizes_via_tour_matches_oracle():
    rng = Lcg(23)
    for trial in range(50):
        n = 1 + rng.next_below(256)
        t = gen_tree("random-attachment", n, seed=trial)
        s = sim_for(max(1, 2 * n - 1))
        assert subtree_sizes_via_tour(s, t, seed=trial).tolist() == subtree_sizes(t)
