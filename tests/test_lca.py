import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialtree.layout import light_first_layout
from spatialtree.lca import (MAX_MULTIPLICITY, _last_start_at_or_below, _new_path_indicators,
                             batched_lca, path_decomposition, subtree_cover)
from spatialtree.rng import Lcg
from spatialtree.sim import SimState
from spatialtree.treefix import treefix_sum
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, gen_tree,
                               lca_naive, subtree_sizes)

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def decompose(t):
    lay = light_first_layout(t)
    sizes = subtree_sizes(t)
    sim = SimState(lay.placement())
    d = path_decomposition(sim, t, lay, sizes, seed=0)
    return d, sizes, lay


def query_batch(t, count, rng, cap=4):
    mult = [0] * t.n
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count + 50:
        guard += 1
        u = rng.next_below(t.n)
        v = rng.next_below(t.n)
        need_u = 2 if u == v else 1
        if mult[u] + need_u <= cap and (u == v or mult[v] + 1 <= cap):
            out.append((u, v))
            mult[u] += need_u
            if u != v:
                mult[v] += 1
    return out


def test_path_graph_single_path():
    t = gen_tree("path", 9)
    d, _, _ = decompose(t)
    assert d.layer.tolist() == [0] * 9
    assert d.path_root.tolist() == [0] * 9


def test_figure_tree_decomposition_matches_caption():
    t = RootedTree(list(FIGURE_PARENTS))
    d, sizes, lay = decompose(t)
    assert d.layer.tolist() == [0, 1, 2, 1, 0, 1, 0, 0]
    groups = {}
    for v, r in enumerate(d.path_root.tolist()):
        groups.setdefault(r, []).append(v)
    assert groups == {0: [0, 4, 6, 7], 1: [1, 3], 2: [2], 5: [5]}
    cover = subtree_cover(d, sizes, lay)
    entries = {(e.root, e.lo, e.hi, e.layer) for e in cover}
    assert (0, 0, 7, 0) in entries
    assert (1, 1, 3, 1) in entries
    assert (5, 5, 5, 1) in entries
    assert (2, 2, 2, 2) in entries


def test_perfect_binary_max_layer():
    for k in (3, 5, 7):
        t = gen_tree("perfect-binary", 2 ** k - 1)
        d, _, _ = decompose(t)
        assert max(d.layer) == k - 1


def test_star_cover_shape():
    t = gen_tree("star", 6)
    d, sizes, lay = decompose(t)
    cover = subtree_cover(d, sizes, lay)
    whole = [e for e in cover if e.layer == 0]
    assert len(whole) == 1 and (whole[0].lo, whole[0].hi) == (0, 5)
    singles = [e for e in cover if e.layer == 1]
    assert len(singles) == len(t.children[0]) - 1
    assert all(e.lo == e.hi for e in singles)


def test_layer_bound_log_and_recurrence():
    rng = Lcg(40)
    for trial in range(40):
        n = 2 + rng.next_below(500)
        t = gen_tree("random-attachment", n, seed=trial)
        d, sizes, _ = decompose(t)
        assert max(d.layer) <= math.ceil(math.log2(n))
        assert d.layer[t.root] == 0
        heavy = {sorted(cs, key=sizes.__getitem__)[-1] for cs in t.children if cs}
        for v in range(n):
            p = t.parent[v]
            if p >= 0:
                assert d.layer[v] == d.layer[p] + (0 if v in heavy else 1)


def sorted_path_indicators(t, sizes):
    """The heavy child as the last entry of each light-first child list."""
    ind = [1] * t.n
    ind[t.root] = 0
    for cs in t.children:
        if cs:
            ind[sorted(cs, key=sizes.__getitem__)[-1]] = 0
    return ind


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_heavy_child_matches_light_first_order(kind):
    # perfect-binary and star are all ties; relabelling mixes child order
    for seed in (1, 7):
        t = gen_tree(kind, 127 if kind == "perfect-binary" else 150, seed=seed)
        perm = np.random.default_rng(seed).permutation(t.n).tolist()
        parent = [-1] * t.n
        for v, p in enumerate(t.parent):
            parent[perm[v]] = perm[p] if p >= 0 else -1
        for tree in (t, RootedTree(parent)):
            sizes = subtree_sizes(tree)
            assert _new_path_indicators(tree, sizes).tolist() == \
                sorted_path_indicators(tree, sizes)


def test_heavy_child_ties_follow_child_order():
    single = RootedTree([-1])
    assert _new_path_indicators(single, [1]).tolist() == [0]
    # the root's children 1 and 2 tie at size 2: the last of the largest wins
    t = RootedTree([-1, 0, 0, 0, 1, 2])
    sizes = subtree_sizes(t)
    assert _new_path_indicators(t, sizes).tolist() == sorted_path_indicators(t, sizes)
    assert _new_path_indicators(t, sizes).tolist() == [0, 1, 0, 1, 0, 0]


def test_cover_membership_counts():
    rng = Lcg(41)
    for trial in range(20):
        n = 2 + rng.next_below(300)
        t = gen_tree("random-attachment", n, seed=trial)
        d, sizes, lay = decompose(t)
        cover = subtree_cover(d, sizes, lay)
        counts = [0] * n
        vtx = np.argsort(lay.pos_arr)
        for e in cover:
            for p in range(e.lo, e.hi + 1):
                counts[vtx[p]] += 1
        assert all(1 <= c <= math.ceil(math.log2(n)) + 1 for c in counts)
        # ranges on one layer are pairwise disjoint and total at most n
        by_layer = {}
        for e in cover:
            by_layer.setdefault(e.layer, []).append(e)
        for entries in by_layer.values():
            entries.sort(key=lambda e: e.lo)
            assert sum(e.hi - e.lo + 1 for e in entries) <= n
            for a, b in zip(entries, entries[1:]):
                assert a.hi < b.lo


def test_range_nesting():
    rng = Lcg(42)
    for trial in range(20):
        n = 2 + rng.next_below(300)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t)
        sizes = subtree_sizes(t)
        lo = lay.pos
        hi = [p + s - 1 for p, s in zip(lo, sizes)]
        for v, kids in enumerate(t.children):
            p = t.parent[v]
            if p >= 0:
                assert lo[p] < lo[v] and hi[v] <= hi[p]
                assert hi[v] - lo[v] < hi[p] - lo[p]
            for a, b in zip(kids, kids[1:]):
                assert (hi[a] < lo[b]) or (hi[b] < lo[a])


def test_cover_witness_exists_for_every_proper_lca():
    # for LCA w not in {u, v}, at least one cover subtree with parent w
    # contains exactly one endpoint, and every such witness names w
    rng = Lcg(43)
    for trial in range(12):
        n = 3 + rng.next_below(62)
        t = gen_tree("random-attachment", n, seed=trial)
        d, sizes, lay = decompose(t)
        cover = subtree_cover(d, sizes, lay)
        pos = lay.pos
        for u in range(n):
            for v in range(u + 1, n):
                w = lca_naive(t, u, v)
                if w in (u, v):
                    continue
                witnesses = []
                for e in cover:
                    if e.root == t.root:
                        continue
                    inside = (e.lo <= pos[u] <= e.hi, e.lo <= pos[v] <= e.hi)
                    if sum(inside) == 1 and t.parent[e.root] == w:
                        witnesses.append(e)
                assert len(witnesses) >= 1, (trial, u, v, w)


def test_reflexive_and_ancestor_queries():
    t = RootedTree(list(FIGURE_PARENTS))
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    ans = batched_lca(sim, t, lay, [(6, 6), (0, 5), (7, 4)], seed=1)
    assert ans == [6, 0, 4]


def test_figure_tree_queries():
    t = RootedTree(list(FIGURE_PARENTS))
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    ans = batched_lca(sim, t, lay, [(2, 3), (5, 7), (3, 7)], seed=5)
    assert ans == [1, 4, 0]


def test_multiplicity_cap_enforced():
    t = gen_tree("star", 8)
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    queries = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]
    with pytest.raises(ValueError):
        batched_lca(sim, t, lay, queries, seed=0)
    assert batched_lca(SimState(lay.placement()), t, lay, queries[:4], seed=0) \
        == [0, 0, 0, 0]


def test_every_rooted_shape_up_to_six_vertices_all_queries():
    import itertools
    for n in range(2, 7):
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            t = RootedTree([-1] + list(parents))
            lay = light_first_layout(t)
            qs = [(u, v) for u in range(n) for v in range(n)]
            # split into batches respecting the multiplicity cap
            batches, batch, mult = [], [], [0] * n
            for u, v in qs:
                need = 2 if u == v else 1
                if mult[u] + need > 4 or (u != v and mult[v] + 1 > 4):
                    batches.append(batch)
                    batch, mult = [], [0] * n
                batch.append((u, v))
                mult[u] += need
                if u != v:
                    mult[v] += 1
            batches.append(batch)
            for b in batches:
                ans = batched_lca(SimState(lay.placement()), t, lay, b, seed=7)
                assert ans == [lca_naive(t, u, v) for u, v in b], (parents, b)


def test_oracle_equality_random_trees():
    rng = Lcg(44)
    for trial in range(60):
        n = 2 + rng.next_below(512)
        kind = ["random-attachment", "path", "caterpillar", "star"][trial % 4]
        t = gen_tree(kind, n, seed=trial)
        lay = light_first_layout(t)
        qs = query_batch(t, min(2 * n, 60), rng)
        ans = batched_lca(SimState(lay.placement()), t, lay, qs, seed=trial)
        assert ans == [lca_naive(t, u, v) for u, v in qs]


def test_lca_cost_scaling():
    prev = None
    for k in (8, 10, 12):
        n = 2 ** k
        t = gen_tree("random-attachment", n, seed=9, max_children=2)
        lay = light_first_layout(t)
        rng = Lcg(k)
        qs = query_batch(t, n // 2, rng)
        sim = SimState(lay.placement())
        batched_lca(sim, t, lay, qs, seed=9)
        e_norm = sim.energy / (n * math.log2(n))
        d_norm = sim.depth / (math.log2(n) ** 2)
        if prev is not None:
            assert e_norm / prev[0] <= 1.5
            assert d_norm / prev[1] <= 1.5
        prev = (e_norm, d_norm)


def test_step_one_uses_real_treefix_costs():
    t = gen_tree("random-attachment", 128, seed=2)
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    batched_lca(sim, t, lay, [(0, 1)], seed=2)
    # at least two treefix passes worth of messages ran on the simulator
    probe = SimState(lay.placement())
    treefix_sum(probe, t, lay, [1] * t.n, seed=2)
    assert sim.messages > probe.messages


def path_roots_by_walk(t, ind):
    """Reference: a BFS walk hands every vertex its parent's path root,
    unless the vertex starts a new path."""
    path_root = [0] * t.n
    for v in t.bfs.tolist():
        p = t.parent[v]
        path_root[v] = v if (p < 0 or ind[v]) else path_root[p]
    return path_root


def cover_by_loop(decomp, sizes, layout):
    """Reference: one (root, lo, hi, layer) entry per path root, sorted by
    layer and then by lo."""
    pos = layout.pos
    entries = []
    for v in range(len(sizes)):
        if decomp.path_root[v] == v:
            entries.append((v, pos[v], pos[v] + sizes[v] - 1, decomp.layer[v]))
    entries.sort(key=lambda e: (e[3], e[1]))
    return entries


def relabel(t, seed):
    perm = np.random.default_rng(seed).permutation(t.n).tolist()
    parent = [-1] * t.n
    for v, p in enumerate(t.parent):
        parent[perm[v]] = perm[p] if p >= 0 else -1
    return RootedTree(parent)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_path_roots_and_cover_match_per_vertex_references(kind):
    sizes_n = (1, 3, 63, 255) if kind == "perfect-binary" else (1, 2, 64, 256)
    for n in sizes_n:
        built = gen_tree(kind, n, seed=n)
        for t in (built, relabel(built, n)):
            d, sizes, lay = decompose(t)
            assert d.layer.dtype == d.path_root.dtype == np.int64
            assert d.path_root.tolist() == path_roots_by_walk(t, _new_path_indicators(t, sizes))
            assert subtree_cover(d, sizes, lay).tolist() == cover_by_loop(d, sizes, lay)


def star_and_sim():
    t = gen_tree("star", 8)
    lay = light_first_layout(t)
    return t, lay, SimState(lay.placement())


NOT_PAIRS = "each query must be a pair of integers"


@pytest.mark.parametrize("queries, message", [
    ([(0, 1.5)], NOT_PAIRS),
    ([(0, 1), (2, 3.0)], NOT_PAIRS),
    ([(0, 1, 2)], NOT_PAIRS),
    ([(0, 1), (2,)], NOT_PAIRS),
    ([("0", "1")], NOT_PAIRS),
    ([(0, None)], NOT_PAIRS),
    ([(0, 1), (8, 0), (-1, 2)], "query (8, 0) out of range"),
    ([(0, 1), (2, -3)], "query (2, -3) out of range"),
    ([(1, 1), (1, 1), (1, 2)],
     "a vertex appears in 5 queries, above the limit of 4; "
     "split hot vertices before querying"),
    # ints past int64, which numpy turns into float or object arrays
    ([(0, 1), (0, 2 ** 64 - 1)], "query (0, 18446744073709551615) out of range"),
    ([(2 ** 70, 1)], f"query ({2 ** 70}, 1) out of range"),
    ([(0, 1), (-2 ** 63 - 1, 2)], f"query ({-2 ** 63 - 1}, 2) out of range"),
    ([(2 ** 70, 1.5)], NOT_PAIRS),
    # bools are ints to array("q"), but not vertex ids
    ([(True, 0)], NOT_PAIRS),
    ([(0, False)], NOT_PAIRS),
])
def test_bad_queries_raise_before_any_message(queries, message):
    t, lay, sim = star_and_sim()
    with pytest.raises(ValueError, match=re.escape(message)):
        batched_lca(sim, t, lay, queries, seed=0)
    assert sim.messages == 0


def test_empty_query_batch_and_the_multiplicity_limit():
    t, lay, sim = star_and_sim()
    assert batched_lca(sim, t, lay, [], seed=0) == []
    assert MAX_MULTIPLICITY == 4
    full = [(1, 1), (1, 2), (2, 2), (2, 3)]  # vertices 1 and 2 at the limit
    assert batched_lca(SimState(lay.placement()), t, lay, full, seed=0) == [1, 0, 2, 0]


@given(st.lists(st.integers(0, 300), max_size=25, unique=True),
       st.lists(st.integers(-5, 400), max_size=60), st.integers(0, 20))
def test_range_start_search_equals_searchsorted_right(starts, needles, width):
    # needles below the first start, on every start and past the last
    # range's end, besides the drawn ones
    starts = np.sort(np.array(starts, dtype=np.int32))
    extra = [starts - 1, starts, starts + width, starts[-1:] + width + 1] if len(starts) else []
    needles = np.sort(np.concatenate([np.array(needles, dtype=np.int32), *extra]))
    got = _last_start_at_or_below(starts, needles)
    assert got.tolist() == (np.searchsorted(starts, needles, side="right") - 1).tolist()


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_query_arrays_answer_like_query_lists(dtype):
    t = gen_tree("random-attachment", 300, seed=6)
    lay = light_first_layout(t)
    queries = query_batch(t, 200, Lcg(6))
    want_sim = SimState(lay.placement(), trace=True)
    want = batched_lca(want_sim, t, lay, queries, seed=6)
    got_sim = SimState(lay.placement(), trace=True)
    got = batched_lca(got_sim, t, lay, np.array(queries, dtype=dtype), seed=6)
    assert type(want) is list and all(type(a) is int for a in want)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == want == [lca_naive(t, u, v) for u, v in queries]
    assert got_sim.report() == want_sim.report()
    assert got_sim.events == want_sim.events


@pytest.mark.parametrize("queries", [
    np.array([[0, 1.0]]),
    np.array([[0, 1, 2]]),
    np.array([0, 1]),
    np.array([[True, False]]),
    [(0, 1, 2), (3,)],  # four integers, but not two pairs
    [(0, 1), (2, 3, 4), (5,)],
])
def test_malformed_query_arrays_raise_before_any_message(queries):
    t, lay, sim = star_and_sim()
    with pytest.raises(ValueError, match=re.escape(NOT_PAIRS)):
        batched_lca(sim, t, lay, queries, seed=0)
    assert sim.messages == 0


def test_empty_query_array():
    t, lay, sim = star_and_sim()
    got = batched_lca(sim, t, lay, np.empty((0, 2), dtype=np.int64), seed=0)
    assert isinstance(got, np.ndarray) and got.shape == (0,)
    with pytest.raises(ValueError, match=re.escape("query (8, 0) out of range")):
        batched_lca(sim, t, lay, np.array([[0, 1], [8, 0]], dtype=np.uint64), seed=0)
