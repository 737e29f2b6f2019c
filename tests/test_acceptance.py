"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (visible with `pytest -s`)."""

import math
import time

import numpy as np

from spatialtree.curves import (CurveKind, aligned_square_side, cell_count,
                                curve_coords, curve_indices,
                                zorder_longest_diagonal)
from spatialtree.layout import (build_baseline, build_light_first,
                                heaviest_last_is_optimal, light_first_layout,
                                light_first_positions, verify_light_first)
from spatialtree.lca import batched_lca, path_decomposition, subtree_cover
from spatialtree.listrank import list_rank, subtree_sizes_via_tour
from spatialtree.rng import Lcg
from spatialtree.sim import Placement, SimState
from spatialtree.treefix import treefix_sum, treefix_topdown
from spatialtree.trees import (RootedTree, gen_tree, lca_naive, root_path_sums,
                               subtree_sizes, subtree_sums)
from spatialtree.virtual_tree import local_broadcast, transform

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def _ok(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def _random_chain(m, seed):
    rng = Lcg(seed)
    order = list(range(m))
    for i in range(m - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    succ = [-1] * m
    for i in range(m - 1):
        succ[order[i]] = order[i + 1]
    return succ, order[0], order


def _queries(t, count, rng, cap=4):
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


def _broadcast_energy(t, layout):
    vt = transform(t, subtree_sizes(t))
    sim = SimState(layout.placement())
    local_broadcast(sim, vt, layout, [0] * t.n)
    return sim.energy


def test_criterion_01_curve_bijections_and_unit_steps():
    start = time.perf_counter()
    for kind in CurveKind:
        for k in range(0, 11):
            rows, cols = curve_coords(kind, k)
            idx = curve_indices(kind, k, rows, cols)
            assert np.array_equal(idx, np.arange(cell_count(k)))
            if kind is CurveKind.HILBERT and k >= 1:
                steps = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
                assert steps.min() == steps.max() == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(1, f"bijection round-trips k<=10 (both curves), Hilbert unit steps, "
           f"{elapsed:.1f}s")


def test_criterion_02_zorder_diagonal_anchor():
    assert zorder_longest_diagonal(2, 6, 10) == 4
    _ok(2, "zorder_longest_diagonal(k=2, 6, 10) == 4")


def test_criterion_03_hilbert_distance_bound():
    # exhaustive pairs for k <= 6
    for k in range(1, 7):
        rows, cols = curve_coords(CurveKind.HILBERT, k)
        n = cell_count(k)
        for i in range(n - 1):
            d = np.abs(rows[i + 1:] - rows[i]) + np.abs(cols[i + 1:] - cols[i])
            gap = np.arange(1, n - i, dtype=np.float64)
            assert np.all(d <= 3.0 * np.sqrt(gap) + 6.0)
    # sampled pairs for k <= 10
    rng = np.random.default_rng(12345)
    for k in (8, 10):
        rows, cols = curve_coords(CurveKind.HILBERT, k)
        n = cell_count(k)
        i = rng.integers(0, n - 1, size=500_000)
        j = rng.integers(0, n - 1, size=500_000)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        keep = lo < hi
        lo, hi = lo[keep], hi[keep]
        d = np.abs(rows[hi] - rows[lo]) + np.abs(cols[hi] - cols[lo])
        assert np.all(d <= 3.0 * np.sqrt(hi - lo) + 6.0)
    _ok(3, "dist <= 3*sqrt(j-i) + 6 on all exhaustive (k<=6) and ~1e6 sampled "
           "(k<=10) pairs")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    rng = Lcg(2024)
    kinds = ["random-attachment", "path", "caterpillar", "star"]
    seeds = (101, 202, 303)
    checked = {"treefix": 0, "topdown": 0, "lca": 0, "listrank": 0, "tour": 0}
    for trial in range(200):
        n = 1 + rng.next_below(512)
        t = gen_tree(kinds[trial % 4], n, seed=trial)
        vals = [rng.next_below(2001) - 1000 for _ in range(n)]
        lay = light_first_layout(t)
        want_sum = subtree_sums(t, vals)
        want_path = root_path_sums(t, vals)
        qs = _queries(t, min(2 * n, 40), rng)
        want_lca = [lca_naive(t, u, v) for u, v in qs]
        chain, head, order = _random_chain(n, seed=trial)
        want_rank = {e: i for i, e in enumerate(order)}
        want_sizes = subtree_sizes(t)
        for seed in seeds:
            got = treefix_sum(SimState(lay.placement()), t, lay, vals, seed)
            assert got == want_sum
            checked["treefix"] += 1
            got = treefix_topdown(SimState(lay.placement()), t, lay, vals, seed)
            assert got == want_path
            checked["topdown"] += 1
            got = batched_lca(SimState(lay.placement()), t, lay, qs, seed)
            assert got == want_lca
            checked["lca"] += 1
            s = SimState(Placement.for_size(CurveKind.HILBERT, n))
            ranks = list_rank(s, chain, head, seed)
            assert all(ranks[e] == want_rank[e] for e in range(n))
            checked["listrank"] += 1
            s = SimState(Placement.for_size(CurveKind.HILBERT, max(1, 2 * n - 1)))
            assert subtree_sizes_via_tour(s, t, seed).tolist() == want_sizes
            checked["tour"] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert all(c == 600 for c in checked.values())
    _ok(4, f"exact oracle equality, 200 trees x 3 seeds x 5 algorithms, "
           f"{elapsed:.1f}s")


def test_criterion_05_energy_bound_light_first():
    for kind in (CurveKind.HILBERT, CurveKind.ZORDER):
        energies = []
        sizes = []
        for k in range(8, 17, 2):
            n = 2 ** k - 1
            t = gen_tree("perfect-binary", n)
            e = _broadcast_energy(t, light_first_layout(t, kind))
            energies.append(e)
            sizes.append(n)
            if kind is CurveKind.HILBERT:
                assert e <= 72 * n  # 8 * alpha * degree, alpha=3, degree=3
        for a, b in zip(energies, energies[1:]):
            assert b / a <= 4.5
    _ok(5, "local broadcast energy linear on light-first layouts "
           "(Hilbert <= 72n; ratio <= 4.5 on both curves, k=8..16)")


def test_criterion_06_baseline_separation():
    bfs = []
    for k in range(8, 17, 2):
        t = gen_tree("perfect-binary", 2 ** k - 1)
        bfs.append(_broadcast_energy(t, build_baseline(t, "bfs", CurveKind.HILBERT)))
    for a, b in zip(bfs, bfs[1:]):
        assert b / a >= 6.0
    dfs = []
    for k in range(8, 17, 2):
        t = gen_tree("caterpillar", 2 ** k)
        dfs.append(_broadcast_energy(t, build_baseline(t, "dfs", CurveKind.HILBERT)))
    for a, b in zip(dfs, dfs[1:]):
        assert b / a >= 6.0
    _ok(6, "BFS perfect-binary and DFS caterpillar broadcasts grow "
           "superlinearly (ratio >= 6 per 4x)")


def test_criterion_07_layout_construction_costs():
    t0 = gen_tree("random-attachment", 2 ** 10, seed=77)
    _, rep0, _ = build_light_first(t0, CurveKind.HILBERT, seed=77)
    c0 = rep0.energy / (2 ** 10) ** 1.5
    for k in (12, 14, 16):
        t = gen_tree("random-attachment", 2 ** k, seed=77)
        lay, rep, _ = build_light_first(t, CurveKind.HILBERT, seed=77)
        assert rep.energy <= 2 * c0 * (2 ** k) ** 1.5
        assert lay.pos == light_first_positions(t)
    iters_checked = 0
    for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14):
        for seed in range(25):
            chain, head, _ = _random_chain(n, seed=seed)
            s = SimState(Placement.for_size(CurveKind.HILBERT, n))
            list_rank(s, chain, head, seed=seed + 1)
            assert s.rounds <= 8 * math.log2(n)
            iters_checked += 1
    assert iters_checked == 100
    _ok(7, f"pipeline energy within 2x of C*n^1.5 (C at n=2^10, "
           f"C={c0:.2f}) up to n=2^16; contraction iterations <= 8*log2(n) "
           f"over 100 seeds")


def test_criterion_08_treefix_scaling():
    prev = None
    for k in (8, 10, 12, 14):
        n = 2 ** k
        t = gen_tree("random-attachment", n, seed=55, max_children=2)
        lay = light_first_layout(t)
        sim = SimState(lay.placement())
        treefix_sum(sim, t, lay, [1] * n, seed=55)
        e_norm = sim.energy / (n * math.log2(n))
        d_norm = sim.depth / math.log2(n)
        if prev is not None:
            assert e_norm / prev[0] <= 1.5
            assert d_norm / prev[1] <= 1.5
        prev = (e_norm, d_norm)
    prev_depth = None
    for k in (8, 10, 12, 14):
        n = 2 ** k
        t = gen_tree("random-attachment", n, seed=56)  # unbounded degree
        lay = light_first_layout(t)
        sim = SimState(lay.placement())
        treefix_sum(sim, t, lay, [1] * n, seed=56)
        d_norm = sim.depth / (math.log2(n) ** 2)
        if prev_depth is not None:
            assert d_norm / prev_depth <= 1.5
        prev_depth = d_norm
    _ok(8, "treefix energy/(n log n) and depth/log n ratios <= 1.5 per 4x "
           "(bounded degree); depth/log^2 n bounded (unbounded degree)")


def test_criterion_09_lca_scaling_and_layer_volume():
    prev = None
    for k in (8, 10, 12, 14):
        n = 2 ** k
        t = gen_tree("random-attachment", n, seed=66, max_children=2)
        lay = light_first_layout(t)
        rng = Lcg(k)
        qs = _queries(t, n // 2, rng)
        sim = SimState(lay.placement())
        batched_lca(sim, t, lay, qs, seed=66)
        e_norm = sim.energy / (n * math.log2(n))
        d_norm = sim.depth / (math.log2(n) ** 2)
        if prev is not None:
            assert e_norm / prev[0] <= 1.5
            assert d_norm / prev[1] <= 1.5
        prev = (e_norm, d_norm)
    rng = Lcg(67)
    for trial in range(30):
        n = 2 + rng.next_below(2000)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t)
        sizes = subtree_sizes(t)
        d = path_decomposition(SimState(lay.placement()), t, lay, sizes, seed=1)
        by_layer = {}
        for e in subtree_cover(d, sizes, lay):
            by_layer.setdefault(e.layer, []).append(e)
        for entries in by_layer.values():
            assert sum(e.hi - e.lo + 1 for e in entries) <= n
    _ok(9, "lca energy/(n log n) and depth/log^2 n ratios <= 1.5 per 4x; "
           "per-layer cover volume <= n on 30 random trees")


def test_criterion_10_analytic_inequalities():
    for delta in range(1, 5):
        for n in range(1, 25):
            assert heaviest_last_is_optimal(n, delta)
    rng = Lcg(2718)
    for _ in range(10_000):
        b = 1e-3 + rng.next_float() * 100
        a = b / 2 + rng.next_float() * (b / 2)
        y = rng.next_float() * 1000
        x = rng.next_float() * (y / 2)
        assert b * math.sqrt(y) <= a * math.sqrt(x) + b * math.sqrt(y - x) + 1e-9
    _ok(10, "composition minimizer exhaustive (n<=24, slots<=4); sqrt "
            "inequality on 10^4 sampled tuples")


def test_criterion_11_zorder_diagonal_usage():
    rng = Lcg(31415)
    worst = 0.0
    for trial in range(20):
        n = 2 + rng.next_below(4095)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t, CurveKind.ZORDER)
        vt = transform(t, subtree_sizes(t))
        sim = SimState(lay.placement(), trace=True)
        local_broadcast(sim, vt, lay, [0] * n)
        rows, cols = curve_coords(CurveKind.ZORDER, lay.k)
        drow = np.abs(np.diff(rows))
        dcol = np.abs(np.diff(cols))
        stepdist = drow + dcol
        crossing = (rows[:-1] >> 1 != rows[1:] >> 1) | (cols[:-1] >> 1 != cols[1:] >> 1)
        scan = np.where(crossing, stepdist, 0)
        sent = {}
        for ev in sim.events:
            sent[ev.src] = sent.get(ev.src, 0) + 1
        delta = max(sent.values())
        counts: dict[int, int] = {}
        for ev in sim.events:
            lo, hi = min(ev.src, ev.dst), max(ev.src, ev.dst)
            if lo == hi:
                continue
            window = scan[lo:hi]
            best = int(window.max())
            if best == 0:
                continue
            step = lo + int(window.argmax())
            counts[step] = counts.get(step, 0) + 1
        for step, c in counts.items():
            span = aligned_square_side((rows[step], cols[step]),
                                       (rows[step + 1], cols[step + 1]))
            bound = delta * math.ceil(math.log2(4 * span * span))
            assert c <= bound, (trial, step, c, bound)
            worst = max(worst, c / bound)
    _ok(11, f"every diagonal is the longest for at most "
            f"degree*ceil(log2(4k^2)) messages (worst fill {worst:.2f})")


def test_criterion_12_figure_tree_end_to_end():
    t = RootedTree(list(FIGURE_PARENTS))
    sizes = subtree_sizes(t)
    assert sizes == [8, 3, 1, 1, 4, 1, 2, 1]
    lay, _, _ = build_light_first(t, CurveKind.HILBERT, seed=1)
    assert lay.pos == list(range(8))
    assert verify_light_first(t, sizes, lay)
    sim = SimState(lay.placement())
    decomp = path_decomposition(sim, t, lay, sizes, seed=1)
    assert decomp.layer.tolist() == [0, 1, 2, 1, 0, 1, 0, 0]
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(decomp.path_root.tolist()):
        groups.setdefault(r, []).append(v)
    assert groups == {0: [0, 4, 6, 7], 1: [1, 3], 2: [2], 5: [5]}
    entries = {(e.root, e.lo, e.hi) for e in subtree_cover(decomp, sizes, lay)}
    assert (0, 0, 7) in entries and (1, 1, 3) in entries
    ans = batched_lca(SimState(lay.placement()), t, lay,
                      [(2, 3), (5, 7), (3, 7)], seed=1)
    assert ans == [1, 4, 0]
    _ok(12, "figure tree: light-first positions are the labels, cover holds "
            "[0,7] and [1,3], paths match, queries give 1/4/0")
