import math
import operator

import numpy as np
import pytest

from spatialtree.layout import light_first_layout
from spatialtree.rng import Lcg
from spatialtree.sim import SimState
from spatialtree.treefix import STATE_WORDS, ContractionEngine, treefix_sum, treefix_topdown
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, gen_tree, root_path_sums,
                               subtree_sizes, subtree_sums)
from spatialtree.virtual_tree import block_broadcast, block_reduce
from test_sim import note_words

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def engine_for(t, values=None, seed=0, **kw):
    lay = light_first_layout(t)
    sim = SimState(lay.placement(), **kw)
    vals = values if values is not None else [1] * t.n
    return ContractionEngine(sim, t, lay, vals, seed=seed)


def structure_signature(eng):
    """The live supervertex forest of a ``ContractionEngine``: per live
    vertex in id order, its supervertex parent, bottom, partial sum and live
    children in id order."""
    live = np.flatnonzero(eng.active)
    vs = live.tolist()
    par = eng.svparent[live].tolist()
    kids = {v: [] for v in vs}
    for v, p in zip(vs, par):
        if p >= 0:
            kids[p].append(v)
    return tuple(zip(vs, par, eng.bottom[live].tolist(), eng.P[live].tolist(),
                     map(tuple, kids.values())))


def test_compress_path_hand_trace():
    t = gen_tree("path", 3)
    eng = engine_for(t)
    eng._compress(np.array([0]), np.array([1]))
    assert eng.P[0] == 2
    assert (eng.child_count[0], eng.child_sum[0]) == (1, 2)  # the child set {2}
    assert not eng.active[1]


def test_compress_then_undo_restores_state_exactly():
    t = gen_tree("path", 3)
    eng = engine_for(t, values=[5, 7, 9])
    before = (eng.P.tolist(), eng.active.tolist(), structure_signature(eng))
    eng._compress(np.array([0]), np.array([1]))
    eng._undo_compress(np.array([0]), "bottom-up")
    # A values move around during undo; P, activity, and structure must match
    assert (eng.P.tolist(), eng.active.tolist(), structure_signature(eng)) == before


def test_rake_star_counts():
    star = gen_tree("star", 4)
    eng = engine_for(star)
    eng._rake(np.array([0]), eng.child_count == 0)
    assert eng.P[0] == 4
    assert eng.active_count == 1


def test_rake_leaves_w_untouched():
    # root with a leaf child and a deeper child; leaf 3 is not the root's
    t = RootedTree([-1, 0, 0, 2])
    eng = engine_for(t, values=[1, 1, 10, 1])
    eng._rake(np.array([0]), eng.child_count == 0)
    assert eng.active.tolist() == [True, False, True, True]
    assert eng.P[2] == 10  # w keeps its sum, nothing absorbed
    assert eng.P[0] == 2


def test_figure_tree_rake_at_vertex_one():
    # whatever the coins, nothing compresses in round 1, and every vertex
    # with a leaf child rakes: 1 rakes 2 and 3, 4 rakes 5 and keeps 6, and
    # 6 rakes 7.  Powers of two show which values each partial sum holds
    t = RootedTree(list(FIGURE_PARENTS))
    for seed in range(4):
        eng = engine_for(t, values=[2 ** v for v in range(8)], seed=seed)
        before = structure_signature(eng)
        assert eng.compact_round() == 4
        assert np.flatnonzero(eng.active).tolist() == [0, 1, 4, 6]
        assert eng.P[[0, 1, 4, 6]].tolist() == [1, 2 + 4 + 8, 16 + 32, 64 + 128]
        assert eng.child_count[[0, 1, 4, 6]].tolist() == [2, 0, 1, 0]
        assert eng.child_sum[[0, 4]].tolist() == [1 + 4, 6]
        eng.undo_round(1, "bottom-up")
        assert structure_signature(eng) == before


def charged(sim):
    return sim.messages, sim.energy, sim.depth, sorted(sim.events)


def test_single_operations_charge_like_scalar_sends():
    # one-vertex steps, each charged on its own.  The star's child block has
    # appended links, so its reduce and broadcasts relay through siblings.  Within one block every relay
    # receives before it sends, so the level rounds charge the scalar
    # sends' events, listed level by level rather than in send order
    star = gen_tree("star", 7)
    eng = engine_for(star, trace=True)
    want = SimState(eng.sim.placement, trace=True)
    vt, pos = eng.vt, light_first_layout(star).pos
    root = np.array([0])
    eng._charge(eng._rake(root, eng.child_count == 0))
    block_reduce(want, vt, pos, 0, pos[0], lambda c: 0, operator.add, 0)
    assert charged(eng.sim) == charged(want)
    eng._charge(eng._undo_rake(root, "top-down"))
    block_broadcast(want, vt, pos, pos[0], 0)
    block_reduce(want, vt, pos, 0, pos[0], lambda c: 0, operator.add, 0)
    block_broadcast(want, vt, pos, pos[0], 0)
    assert charged(eng.sim) == charged(want)

    path = gen_tree("path", 3)
    eng = engine_for(path, trace=True)
    want = SimState(eng.sim.placement, trace=True)
    pos = light_first_layout(path).pos
    eng._charge(eng._compress(root, np.array([1])))
    want.send(pos[1], pos[0])
    want.send(pos[1], pos[2])
    assert charged(eng.sim) == charged(want)
    eng._charge(eng._undo_compress(root, "bottom-up"))
    want.send(pos[0], pos[1])
    want.send(pos[1], pos[0])
    assert charged(eng.sim) == charged(want)


def test_two_vertex_tree_single_round():
    t = gen_tree("path", 2)
    eng = engine_for(t)
    eng.compact_round()
    assert eng.active_count == 1
    assert eng.rounds == 1


def test_compact_round_conservation_and_validity():
    rng = Lcg(12)
    for trial in range(25):
        n = 2 + rng.next_below(200)
        t = gen_tree("random-attachment", n, seed=trial)
        vals = [rng.next_below(50) for _ in range(n)]
        eng = engine_for(t, values=vals, seed=trial)
        total = sum(vals)
        while eng.active_count > 1:
            eng.compact_round()
            assert sum(eng.P[v] for v in range(n) if eng.active[v]) == total
            # the live supervertices still form a rooted tree
            roots = [v for v in range(n)
                     if eng.active[v] and eng.svparent[v] == -1]
            assert roots == [t.root]
            # every live child is counted in its parent's child count and
            # id sum, and nothing else is
            kids = [[] for _ in range(n)]
            for v in range(n):
                if eng.active[v] and eng.svparent[v] >= 0:
                    kids[eng.svparent[v]].append(v)
            for v in range(n):
                if eng.active[v]:
                    assert (eng.child_count[v], eng.child_sum[v]) == (len(kids[v]), sum(kids[v]))


def test_path_compact_round_bound():
    for seed in range(100):
        t = gen_tree("path", 16)
        eng = engine_for(t, seed=seed)
        eng.contract()
        assert eng.rounds <= 8 * math.log2(16)


def test_compact_round_bound_across_sizes():
    # 100 (size, seed) pairs spread over the sweep; rounds <= 8 * log2(n)
    plan = [(2 ** 6, 40), (2 ** 8, 30), (2 ** 10, 20), (2 ** 12, 8), (2 ** 14, 2)]
    for n, nseeds in plan:
        for seed in range(nseeds):
            t = gen_tree("random-attachment", n, seed=seed)
            eng = engine_for(t, seed=seed * 13 + 1)
            eng.contract()
            assert eng.rounds <= 8 * math.log2(n), (n, seed, eng.rounds)


def test_contraction_structural_reversibility():
    rng = Lcg(13)
    for trial in range(20):
        n = 2 + rng.next_below(63)
        t = gen_tree("random-attachment", n, seed=trial)
        eng = engine_for(t, values=list(range(n)), seed=trial)
        snaps = {0: structure_signature(eng)}
        while eng.active_count > 1:
            eng.compact_round()
            snaps[eng.rounds] = structure_signature(eng)
        for tau in range(eng.rounds, 0, -1):
            assert structure_signature(eng) == snaps[tau]
            eng.undo_round(tau, "bottom-up")
        assert structure_signature(eng) == snaps[0]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_child_id_sums_start_as_each_vertex_s_children(kind):
    for n in (1, 3, 255):
        t = gen_tree(kind, n, seed=n)
        want = [sum(cs) for cs in t.children]
        assert engine_for(t).child_sum.tolist() == want


def test_treefix_unit_values_equal_subtree_sizes():
    for trial in range(10):
        t = gen_tree("random-attachment", 120 + trial, seed=trial)
        lay = light_first_layout(t)
        got = treefix_sum(SimState(lay.placement()), t, lay, [1] * t.n, seed=trial)
        assert got == subtree_sizes(t)


def test_figure_tree_sums():
    t = RootedTree(list(FIGURE_PARENTS))
    lay = light_first_layout(t)
    got = treefix_sum(SimState(lay.placement()), t, lay, [1] * 8, seed=2)
    assert got == [8, 3, 1, 1, 4, 1, 2, 1]


def test_topdown_examples():
    t = RootedTree([-1])
    lay = light_first_layout(t)
    assert treefix_topdown(SimState(lay.placement()), t, lay, [42], seed=0) == [42]
    p = gen_tree("path", 3)
    play = light_first_layout(p)
    assert treefix_topdown(SimState(play.placement()), p, play,
                           [1, 2, 3], seed=0) == [1, 3, 6]


def test_oracle_equality_random_trees_and_values():
    rng = Lcg(14)
    for trial in range(60):
        n = 1 + rng.next_below(512)
        kind = ["random-attachment", "path", "star", "caterpillar"][trial % 4]
        t = gen_tree(kind, n, seed=trial)
        vals = [rng.next_below(2001) - 1000 for _ in range(n)]
        lay = light_first_layout(t)
        for seed in (1, 2, 3):
            got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed=seed)
            assert got == subtree_sums(t, vals)
            got = treefix_topdown(SimState(lay.placement()), t, lay, vals, seed=seed)
            assert got == root_path_sums(t, vals)


def test_every_rooted_shape_up_to_six_vertices():
    # parent[i] < i enumerations cover every rooted tree shape
    import itertools
    for n in range(1, 7):
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            t = RootedTree([-1] + list(parents))
            vals = [(v * 13 + 5) % 23 - 11 for v in range(n)]
            lay = light_first_layout(t)
            got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed=1)
            assert got == subtree_sums(t, vals), parents
            got = treefix_topdown(SimState(lay.placement()), t, lay, vals, seed=1)
            assert got == root_path_sums(t, vals), parents


def test_non_integer_values_are_rejected_before_any_message():
    t = gen_tree("path", 4)
    lay = light_first_layout(t)
    for fn in (treefix_sum, treefix_topdown):
        sim = SimState(lay.placement(), trace=True)
        with pytest.raises(ValueError, match="integers"):
            fn(sim, t, lay, [1, 2.5, 3, 4], seed=1)
        assert charged(sim) == (0, 0, 0, [])


def test_integer_like_values_are_accepted():
    t = gen_tree("random-attachment", 40, seed=4)
    lay = light_first_layout(t)
    vals = np.arange(-20, 20, dtype=np.int64)
    got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed=4)
    assert got.dtype == np.int64
    assert got.tolist() == subtree_sums(t, vals.tolist())
    flags = [v % 3 == 0 for v in range(t.n)]
    got = treefix_topdown(SimState(lay.placement()), t, lay, flags, seed=4)
    assert got == root_path_sums(t, [int(f) for f in flags])


def test_values_beyond_int64_are_exact():
    # sum(|values|) >= 2**62 switches P, S and A to Python ints
    for kind in ("random-attachment", "path", "star", "caterpillar"):
        t = gen_tree(kind, 300, seed=5)
        rng = np.random.default_rng(5)
        vals = [int(x) * 2 ** 70 + int(y) for x, y in
                zip(rng.choice([-1, 1], t.n), rng.integers(-9, 10, t.n))]
        lay = light_first_layout(t)
        for fn, oracle in ((treefix_sum, subtree_sums), (treefix_topdown, root_path_sums)):
            got = fn(SimState(lay.placement()), t, lay, vals, seed=5)
            assert got == oracle(t, vals)
            assert all(type(x) is int for x in got)
    # just past the limit, where int64 partial sums could overflow
    t = gen_tree("path", 4)
    lay = light_first_layout(t)
    vals = [2 ** 61, 2 ** 61, -(2 ** 61), 1]
    got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed=1)
    assert got == subtree_sums(t, vals)
    assert all(type(x) is int for x in got)


INT64_MIN = -2 ** 63


@pytest.mark.parametrize("vals, dtype", [
    ([5, -6, 7, -8], np.int64),
    ([2 ** 61, 0, 0, 0], np.int64),
    ([2 ** 62 - 4, 1, 1, 1], np.int64),  # |values| sum to 2**62 - 1
    ([-(2 ** 61), 2 ** 61 - 1, 0, 0], np.int64),
    ([2 ** 62 - 3, 1, 1, 1], object),  # ... and to 2**62
    ([2 ** 62, 0, 0, 0], object),
    ([-(2 ** 62), 0, 0, 0], object),
    ([INT64_MIN, 0, 0, 0], object),
    ([INT64_MIN, 2 ** 63 - 1, 1, -1], object),
])
@pytest.mark.parametrize("fn", [treefix_sum, treefix_topdown])
def test_array_values_give_arrays_like_the_list_results(vals, dtype, fn):
    t = gen_tree("path", 4)
    lay = light_first_layout(t)
    want_sim = SimState(lay.placement(), trace=True)
    want = fn(want_sim, t, lay, vals, seed=3)
    got_sim = SimState(lay.placement(), trace=True)
    got = fn(got_sim, t, lay, np.array(vals, dtype=np.int64), seed=3)
    assert type(want) is list and isinstance(got, np.ndarray)
    assert got.dtype == dtype and got.tolist() == want
    assert charged(got_sim) == charged(want_sim)
    # the engine picks int64 or Python ints exactly as for the list
    for given in (vals, np.array(vals, dtype=np.int64)):
        assert engine_for(t, given).P.dtype == dtype


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32, np.uint64])
def test_narrow_and_unsigned_value_arrays(dtype):
    t = gen_tree("random-attachment", 60, seed=8)
    lay = light_first_layout(t)
    vals = np.arange(t.n, dtype=dtype)
    got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed=8)
    assert got.dtype == np.int64 and got.tolist() == subtree_sums(t, vals.tolist())
    big = np.array([2 ** 63, 0, 1, 2], dtype=np.uint64)  # past int64
    path = gen_tree("path", 4)
    lay = light_first_layout(path)
    got = treefix_topdown(SimState(lay.placement()), path, lay, big, seed=8)
    assert got.dtype == object and got.tolist() == root_path_sums(path, big.tolist())


def test_memory_audit_within_budget():
    t = gen_tree("random-attachment", 200, seed=1)
    lay = light_first_layout(t)
    sim = SimState(lay.placement(), audit_memory=True)
    treefix_sum(sim, t, lay, [1] * 200, seed=1)
    assert sim.max_words <= sim.memory_budget
    assert not sim.violations


def test_memory_audit_over_budget_reports_every_vertex_each_round():
    t = gen_tree("random-attachment", 100, seed=3)
    lay = light_first_layout(t)
    sim = SimState(lay.placement(), audit_memory=True, memory_budget=10)
    treefix_sum(sim, t, lay, [1] * 100, seed=3)
    # per-vertex reference: every round notes each vertex's state words
    want = SimState(lay.placement(), audit_memory=True, memory_budget=10)
    for _ in range(sim.rounds):
        for v in range(t.n):
            note_words(want, lay.pos[v], STATE_WORDS)
    assert sim.rounds > 1
    assert sim.max_words == want.max_words == STATE_WORDS
    assert sim.violations == want.violations


def test_cost_scaling_energy_and_depth():
    prev = None
    for k in (8, 10, 12):
        n = 2 ** k
        t = gen_tree("random-attachment", n, seed=21, max_children=2)
        lay = light_first_layout(t)
        sim = SimState(lay.placement())
        treefix_sum(sim, t, lay, [1] * n, seed=21)
        e_norm = sim.energy / (n * math.log2(n))
        d_norm = sim.depth / math.log2(n)
        if prev is not None:
            assert e_norm / prev[0] <= 1.5
            assert d_norm / prev[1] <= 1.5
        prev = (e_norm, d_norm)


@pytest.mark.parametrize("kind", ["path", "caterpillar"])
@pytest.mark.parametrize("fn", [treefix_sum, treefix_topdown])
def test_chain_depth_over_log_squared_stays_bounded(kind, fn):
    # a compact round costs O(1) rounds plus the relay levels, whatever the
    # vertex ids, and O(log n) compact rounds contract the tree; so
    # depth / log2(n)^2 may rise by at most 1.5x per 4x in n
    prev = None
    for k in (10, 12, 14):
        n = 2 ** k
        t = gen_tree(kind, n, seed=1)
        lay = light_first_layout(t)
        sim = SimState(lay.placement())
        fn(sim, t, lay, [1] * n, seed=1)
        d_norm = sim.depth / k ** 2
        if prev is not None:
            assert d_norm / prev <= 1.5, (n, sim.depth)
        prev = d_norm
