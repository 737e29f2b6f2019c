import math
import operator
import tracemalloc

import numpy as np
import pytest

from spatialtree.curves import CurveKind
from spatialtree.layout import (Layout, build_baseline, build_light_first,
                                format_layout, heaviest_last_is_optimal,
                                light_first_layout, light_first_positions,
                                neighbor_distance_stats, verify_light_first)
from spatialtree.lca import batched_lca, path_decomposition, subtree_cover
from spatialtree.rng import Lcg
from spatialtree.sim import SimState
from spatialtree.treefix import treefix_sum, treefix_topdown
from spatialtree.listrank import list_rank
from spatialtree.trees import RootedTree, gen_tree, light_first_csr, subtree_sizes
from spatialtree.virtual_tree import (build_refs_protocol, local_broadcast, local_reduce,
                                      transform)
from test_virtual_tree import REFERENCE_CASES

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def test_figure_tree_light_first_positions_are_labels():
    t = RootedTree(list(FIGURE_PARENTS))
    assert light_first_positions(t) == list(range(8))


def test_single_vertex():
    t = RootedTree([-1])
    lay, report, _sim = build_light_first(t, CurveKind.HILBERT)
    assert lay.pos == [0]
    assert report.energy == 0


def test_pipeline_matches_direct_construction():
    rng = Lcg(31)
    for trial in range(200):
        n = 1 + rng.next_below(512)
        kind = ["random-attachment", "path", "star", "caterpillar"][trial % 4]
        t = gen_tree(kind, n, seed=trial)
        curve = CurveKind.HILBERT if trial % 2 == 0 else CurveKind.ZORDER
        lay, _, _ = build_light_first(t, curve, seed=trial)
        assert lay.pos == light_first_positions(t), (kind, n, trial)


def test_pipeline_layout_verifies_light_first():
    t = gen_tree("perfect-binary", 7)
    lay, _, _ = build_light_first(t, CurveKind.HILBERT, seed=4)
    assert verify_light_first(t, subtree_sizes(t), lay)


def test_verify_light_first_cases():
    t = RootedTree(list(FIGURE_PARENTS))
    sizes = subtree_sizes(t)
    assert verify_light_first(t, sizes, light_first_layout(t))
    star = gen_tree("star", 4)
    ssizes = subtree_sizes(star)
    # equal-size leaves may appear in any order
    assert verify_light_first(star, ssizes,
                              Layout.from_positions(CurveKind.HILBERT, [0, 3, 1, 2]))
    path = gen_tree("path", 3)
    assert not verify_light_first(path, subtree_sizes(path),
                                  Layout.from_positions(CurveKind.HILBERT, [0, 2, 1]))


def reference_verify_light_first(t, sizes, layout):
    """The sequential check the array verifier replaced: each child list
    sorted by position, walked with a running offset."""
    pos = layout.pos_arr.tolist()
    for v, cs in enumerate(t.children):
        base = pos[v] + 1
        prev_size = 0
        for c in sorted(cs, key=lambda c: pos[c]):
            if pos[c] != base or sizes[c] < prev_size:
                return False
            base += sizes[c]
            prev_size = sizes[c]
    return True


def candidate_layouts(t, sizes):
    """Light-first, both baselines, a cyclic shift and a random placement of
    ``t``, and the sizes with one entry raised and one made negative."""
    n = t.n
    lf = light_first_layout(t, CurveKind.HILBERT, sizes)
    shifted = (lf.pos_arr + 1) % n
    shuffled = np.random.default_rng(n).permutation(n)
    layouts = [lf, build_baseline(t, "bfs", CurveKind.HILBERT),
               build_baseline(t, "dfs", CurveKind.HILBERT),
               Layout.from_positions(CurveKind.HILBERT, shifted),
               Layout.from_positions(CurveKind.HILBERT, shuffled)]
    size_lists = [sizes]
    for v, delta in ((n // 2, 1), (n - 1, -2)):
        changed = list(sizes)
        changed[v] += delta
        size_lists.append(changed)
    return [(s, lay) for lay in layouts for s in size_lists]


@pytest.mark.parametrize("name,t", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_verify_light_first_matches_the_sequential_reference(name, t):
    sizes = subtree_sizes(t)
    cases = candidate_layouts(t, sizes)
    assert verify_light_first(t, *cases[0])
    for s, lay in cases:
        assert verify_light_first(t, s, lay) == reference_verify_light_first(t, s, lay)


def test_verify_light_first_sibling_swaps_and_shifts():
    # the figure tree's light-first positions are its labels: 0 has
    # children 1 (3 vertices) and 4 (4 vertices), 1 has the leaves 2 and 3
    t = RootedTree(list(FIGURE_PARENTS))
    sizes = subtree_sizes(t)

    def verify(pos):
        lay = Layout.from_positions(CurveKind.HILBERT, pos)
        assert verify_light_first(t, sizes, lay) == reference_verify_light_first(t, sizes, lay)
        return verify_light_first(t, sizes, lay)

    assert verify(list(range(8)))
    assert verify([0, 1, 3, 2, 4, 5, 6, 7])  # the equal-size leaves swapped
    assert not verify([0, 5, 6, 7, 1, 2, 3, 4])  # 4's subtree before 1's
    assert not verify([0, 1, 2, 3, 4, 5, 7, 6])  # 6 and its child swapped
    assert not verify([1, 2, 3, 4, 5, 6, 7, 0])  # every position one later


def test_verify_light_first_needs_one_position_and_one_size_per_vertex():
    path = gen_tree("path", 3)
    sizes = subtree_sizes(path)
    fits = Layout.from_positions(CurveKind.HILBERT, [0, 1, 2])
    for s, lay in ((sizes, Layout.from_positions(CurveKind.HILBERT, [0, 1, 2, 3])),
                   (sizes, Layout.from_positions(CurveKind.HILBERT, [0, 1])),
                   (sizes[:2], fits), (sizes + [1], fits)):
        with pytest.raises(ValueError, match="one position and one size per vertex required"):
            verify_light_first(path, s, lay)


def test_verify_light_first_memory_budget():
    t = gen_tree("random-attachment", 65_535, seed=1)
    sizes = subtree_sizes(t)
    lay = light_first_layout(t, CurveKind.HILBERT, sizes)
    tracemalloc.start()
    try:
        assert verify_light_first(t, sizes, lay)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # nothing is cached on the caller's long-lived tree and layout
    assert "children" not in vars(t) and "pos" not in vars(lay)


@pytest.mark.parametrize("pos", [[-1, 0], [0, 5], [1, 1]])
def test_from_positions_rejects_anything_but_a_bijection(pos):
    # -1 would wrap to the last slot, and 5 index past the end
    with pytest.raises(ValueError, match="not a bijection"):
        Layout.from_positions(CurveKind.HILBERT, pos)


def test_from_positions_inverts_the_positions():
    lay = Layout.from_positions(CurveKind.HILBERT, [2, 0, 1])
    assert lay.pos == [2, 0, 1] and np.argsort(lay.pos_arr).tolist() == [1, 2, 0]
    assert all(type(p) is int for p in lay.pos)


def test_from_positions_copies_the_callers_list():
    given = [2, 0, 1]
    lay = Layout.from_positions(CurveKind.HILBERT, given)
    given[0] = 7
    assert lay.pos == [2, 0, 1] and lay.pos_arr.tolist() == [2, 0, 1]
    # a list and the equal array give equal layouts with equal pos
    from_array = Layout.from_positions(CurveKind.HILBERT, np.array([2, 0, 1]))
    assert lay == from_array and lay.pos == from_array.pos
    assert lay != Layout.from_positions(CurveKind.HILBERT, [2, 1, 0])
    assert lay != Layout.from_positions(CurveKind.ZORDER, [2, 0, 1])


@pytest.mark.parametrize("pos", [[0.5, 1.7, 2], [0.0, 1.0], np.array([0.0, 1.0]),
                                 [True, False], [[0, 1]], ["0", "1"]])
def test_from_positions_rejects_positions_that_are_not_integers(pos):
    # a cast to int64 would truncate [0.5, 1.7, 2] to a bijection
    with pytest.raises(ValueError, match="positions must be integers"):
        Layout.from_positions(CurveKind.HILBERT, pos)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_from_positions_keeps_one_read_only_position_array(dtype):
    given = np.array([2, 0, 1], dtype=dtype)
    lay = Layout.from_positions(CurveKind.HILBERT, given)
    assert lay == Layout.from_positions(CurveKind.HILBERT, [2, 0, 1])
    assert lay.pos == [2, 0, 1] and all(type(p) is int for p in lay.pos)
    assert lay.pos_arr.dtype == np.intp and lay.pos_arr.tolist() == lay.pos
    assert not lay.pos_arr.flags.writeable
    assert given.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(ValueError, match="not a bijection"):
        Layout.from_positions(CurveKind.HILBERT, np.array([2 ** 64 - 1, 0], dtype=np.uint64))


def test_every_layout_carries_its_position_array():
    t = gen_tree("random-attachment", 300, seed=3)
    built, _, _ = build_light_first(t, CurveKind.HILBERT, seed=3)
    single, _, _ = build_light_first(RootedTree([-1]), CurveKind.HILBERT)
    for lay in (built, single, light_first_layout(t), build_baseline(t, "bfs", CurveKind.HILBERT),
                build_baseline(t, "dfs", CurveKind.HILBERT)):
        assert type(lay.pos) is list
        assert lay.pos_arr.tolist() == lay.pos and not lay.pos_arr.flags.writeable


def test_baselines():
    path = gen_tree("path", 3)
    assert build_baseline(path, "bfs", CurveKind.HILBERT).pos == [0, 1, 2]
    assert build_baseline(path, "dfs", CurveKind.HILBERT).pos == [0, 1, 2]
    star = gen_tree("star", 4)
    bfs = build_baseline(star, "bfs", CurveKind.HILBERT)
    assert bfs.pos[0] == 0 and sorted(bfs.pos[1:]) == [1, 2, 3]
    with pytest.raises(ValueError):
        build_baseline(star, "level", CurveKind.HILBERT)


def test_neighbor_stats_single_edge():
    t = gen_tree("path", 2)
    stats = neighbor_distance_stats(t, light_first_layout(t))
    assert stats.mean == stats.max == 1


def test_bfs_layout_neighbor_distance_grows_as_sqrt():
    means = []
    for k in (8, 10, 12):
        t = gen_tree("perfect-binary", 2 ** k - 1)
        means.append(neighbor_distance_stats(
            t, build_baseline(t, "bfs", CurveKind.HILBERT)).mean)
    for a, b in zip(means, means[1:]):
        assert 1.7 <= b / a <= 2.3  # sqrt growth per 4x vertices


def test_light_first_neighbor_distance_stays_constant():
    means = []
    for k in (8, 10, 12):
        t = gen_tree("perfect-binary", 2 ** k - 1)
        means.append(neighbor_distance_stats(t, light_first_layout(t)).mean)
    assert max(means) <= 3.0
    assert max(means) / min(means) <= 1.2


def test_layout_construction_energy_scaling():
    # energy <= C * n^(3/2) with C calibrated at n = 2^10, held within 2x
    t0 = gen_tree("random-attachment", 2 ** 10, seed=5)
    _, rep0, _ = build_light_first(t0, CurveKind.HILBERT, seed=5)
    c0 = rep0.energy / (2 ** 10) ** 1.5
    for k in (12, 14):
        t = gen_tree("random-attachment", 2 ** k, seed=5)
        _, rep, _ = build_light_first(t, CurveKind.HILBERT, seed=5)
        c = rep.energy / (2 ** k) ** 1.5
        assert c <= 2 * c0
    assert rep.depth <= 12 * math.log2(2 ** 14)


def test_heaviest_last_minimizer_examples():
    assert heaviest_last_is_optimal(1, 2)
    assert heaviest_last_is_optimal(6, 2)
    assert heaviest_last_is_optimal(24, 4)
    with pytest.raises(ValueError):
        heaviest_last_is_optimal(25, 4)


def test_split_sqrt_inequality_sampled():
    # b*sqrt(y) <= a*sqrt(x) + b*sqrt(y-x) whenever b/2 <= a <= b, 0 <= 2x <= y
    rng = Lcg(77)
    for _ in range(10_000):
        b = 1e-3 + rng.next_float() * 100
        a = b / 2 + rng.next_float() * (b / 2)
        y = rng.next_float() * 1000
        x = rng.next_float() * (y / 2)
        assert b * math.sqrt(y) <= a * math.sqrt(x) + b * math.sqrt(y - x) + 1e-9


def test_format_layout_dump():
    t = gen_tree("path", 3)
    lines = format_layout(light_first_layout(t)).splitlines()
    assert len(lines) == 3
    v, p, r, c = lines[0].split()
    assert (v, p) == ("0", "0")


# every simulated step that takes a layout, as a call on (sim, tree, its
# virtual tree, layout)
LAYOUT_ENTRY_POINTS = {
    "batched_lca": lambda sim, t, vt, lay: batched_lca(sim, t, lay, [(1, 2)], seed=0),
    "treefix_sum": lambda sim, t, vt, lay: treefix_sum(sim, t, lay, [1] * t.n, seed=0),
    "treefix_topdown": lambda sim, t, vt, lay: treefix_topdown(sim, t, lay, [1] * t.n, seed=0),
    "path_decomposition": lambda sim, t, vt, lay: path_decomposition(sim, t, lay, t.sizes, 0),
    "local_broadcast": lambda sim, t, vt, lay: local_broadcast(sim, vt, lay, [1] * t.n),
    "local_reduce": lambda sim, t, vt, lay: local_reduce(sim, vt, lay, [1] * t.n,
                                                         operator.add, 0),
    "build_refs_protocol": lambda sim, t, vt, lay: build_refs_protocol(sim, t, t.sizes, lay),
}


@pytest.mark.parametrize("other", [49, 51])
@pytest.mark.parametrize("entry", LAYOUT_ENTRY_POINTS)
def test_a_layout_of_another_size_raises_before_any_message(entry, other):
    # a smaller layout used to raise IndexError; a larger one used to run
    # and charge a layout that is not this tree's
    run = LAYOUT_ENTRY_POINTS[entry]
    t = gen_tree("random-attachment", 50, seed=1)
    vt = transform(t, t.sizes)
    lay = light_first_layout(gen_tree("random-attachment", other, seed=1))
    sim = SimState(lay.placement(), trace=True)
    sim.clock[:] = np.arange(other)
    with pytest.raises(ValueError, match=f"layout places {other} vertices, the tree has 50"):
        run(sim, t, vt, lay)
    assert sim.report() == SimState(lay.placement()).report()
    assert sim.clock.tolist() == list(range(other))
    assert len(sim.events) == 0
    # the tree's own layout runs
    own = light_first_layout(t)
    run(SimState(own.placement()), t, vt, own)


def test_reading_children_and_pos_leaves_no_list_behind():
    t = gen_tree("random-attachment", 300, seed=3)
    lay = light_first_layout(t)
    assert t.children == t.children and lay.pos == lay.pos == lay.pos_arr.tolist()
    for held in (t, lay):
        assert not [name for name, v in vars(held).items() if isinstance(v, list)]


@pytest.mark.parametrize("other", [49, 80])
def test_neighbor_distance_stats_rejects_a_layout_of_another_size(other):
    # a smaller layout raised IndexError, and the 80-vertex one gave mean
    # 4.86, max 11 for this tree
    t = gen_tree("random-attachment", 50, seed=1)
    lay = light_first_layout(gen_tree("random-attachment", other, seed=1))
    with pytest.raises(ValueError, match=f"layout places {other} vertices, the tree has 50"):
        neighbor_distance_stats(t, lay)


def test_a_layout_on_too_small_a_curve_is_rejected():
    # its placement used to be taken, and the first round raised IndexError
    with pytest.raises(ValueError, match="an order-1 curve places 1 to 4 positions, not 10"):
        Layout(CurveKind.HILBERT, 1, np.arange(10))
    assert Layout(CurveKind.HILBERT, 2, np.arange(10)).placement().k == 2


# every step that takes subtree sizes, as a call on (sim, tree, layout, sizes)
SIZES_ENTRY_POINTS = {
    "light_first_csr": lambda sim, t, lay, s: light_first_csr(t, s),
    "transform": lambda sim, t, lay, s: transform(t, s),
    "build_refs_protocol": lambda sim, t, lay, s: build_refs_protocol(sim, t, s, lay),
    "path_decomposition": lambda sim, t, lay, s: path_decomposition(sim, t, lay, s, 0),
    "light_first_layout": lambda sim, t, lay, s: light_first_layout(t, CurveKind.HILBERT, s),
    "light_first_positions": lambda sim, t, lay, s: light_first_positions(t, s),
    "subtree_cover": lambda sim, t, lay, s: subtree_cover(
        path_decomposition(SimState(lay.placement()), t, lay, t.sizes, 0), s, lay),
}


@pytest.mark.parametrize("length", [49, 80])
@pytest.mark.parametrize("entry", SIZES_ENTRY_POINTS)
def test_sizes_of_another_length_raise_before_any_message(entry, length):
    # a short list raised IndexError, and a long one was taken:
    # transform(t, [1] * 80) built a tree
    run = SIZES_ENTRY_POINTS[entry]
    t = gen_tree("random-attachment", 50, seed=1)
    lay = light_first_layout(t)
    sim = SimState(lay.placement(), trace=True)
    with pytest.raises(ValueError, match=f"{length} subtree sizes given for 50 vertices"):
        run(sim, t, lay, [1] * length)
    assert sim.report() == SimState(lay.placement()).report() and len(sim.events) == 0
    run(sim, t, lay, t.sizes)  # the tree's own sizes run


# every step that draws from a seed, as a call on (sim, tree, layout, seed)
SEEDED_ENTRY_POINTS = {
    "list_rank": lambda sim, t, lay, seed: list_rank(sim, [*range(1, t.n), -1], 0, seed),
    "treefix_sum": lambda sim, t, lay, seed: treefix_sum(sim, t, lay, [1] * t.n, seed),
    "treefix_topdown": lambda sim, t, lay, seed: treefix_topdown(sim, t, lay, [1] * t.n, seed),
    "batched_lca": lambda sim, t, lay, seed: batched_lca(sim, t, lay, [(0, t.n - 1)], seed),
    "path_decomposition": lambda sim, t, lay, seed: path_decomposition(sim, t, lay, t.sizes,
                                                                       seed),
    "build_light_first": lambda sim, t, lay, seed: build_light_first(t, CurveKind.HILBERT,
                                                                     seed),
}


@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
def test_a_seed_that_is_not_an_integer_raises_before_any_message(entry, n):
    # seed=1.5 used to leak a TypeError from the generator
    run = SEEDED_ENTRY_POINTS[entry]
    t = gen_tree("random-attachment", n, seed=1)
    lay = light_first_layout(t)
    sim = SimState(lay.placement(), trace=True)
    with pytest.raises(ValueError, match="seed must be an integer, not 1.5"):
        run(sim, t, lay, 1.5)
    assert sim.report() == SimState(lay.placement()).report() and len(sim.events) == 0
    run(sim, t, lay, 2)
