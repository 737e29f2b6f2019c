from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialtree.rng import Lcg
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, format_tree, gen_tree,
                               lca_naive, light_first_csr, parse_tree, read_queries,
                               root_path_sums, subtree_sizes, subtree_sums)

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


# -- per-vertex references for the array-native tree ---------------------------

def reference_tree(parent):
    """The per-vertex construction the child CSR replaced: child lists
    appended in id order, then one root, parents in range and every vertex
    reached by a walk from the root, checked one vertex at a time.
    Returns (children, root), or None when ``parent`` is not a tree."""
    n = len(parent)
    if n == 0 or any(p != -1 and not 0 <= p < n for p in parent):
        return None
    roots = [v for v, p in enumerate(parent) if p == -1]
    if len(roots) != 1:
        return None
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    seen = 0
    stack = [roots[0]]
    mark = [False] * n
    mark[roots[0]] = True
    while stack:
        v = stack.pop()
        seen += 1
        for c in children[v]:
            if mark[c]:
                return None
            mark[c] = True
            stack.append(c)
    return (children, roots[0]) if seen == n else None


def reference_bfs(children, root):
    order = [root]
    head = 0
    while head < len(order):
        order.extend(children[order[head]])
        head += 1
    return order


def reference_sizes(parent, order):
    s = [1] * len(parent)
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            s[p] += s[v]
    return s


def check_against_reference(parent):
    """RootedTree gives the reference's verdict, and on a tree its CSR, BFS
    order and subtree sizes."""
    want = reference_tree(parent)
    if want is None:
        with pytest.raises(ValueError):
            RootedTree(parent)
        return
    children, root = want
    t = RootedTree(parent)
    assert t.parent.tolist() == parent and t.root == root
    assert t.ptr.tolist() == [0, *accumulate(map(len, children))]
    assert t.kids.tolist() == [c for cs in children for c in cs]
    assert t.children == children
    order = reference_bfs(children, root)
    assert t.bfs.tolist() == order
    assert subtree_sizes(t) == reference_sizes(parent, order)


def relabelled(parent, seed):
    perm = np.random.default_rng(seed).permutation(len(parent)).tolist()
    out = [-1] * len(parent)
    for v, p in enumerate(parent):
        out[perm[v]] = perm[p] if p >= 0 else -1
    return out


def generated_parents():
    # the largest trees take the sizes walk past one block of 8,192 ids
    for kind in GENERATOR_KINDS:
        for n in ((1, 3, 7, 63, 1023, 16_383) if kind == "perfect-binary"
                  else (1, 2, 5, 64, 1000, 20_000)):
            parent = gen_tree(kind, n, seed=n).parent.tolist()
            yield parent
            yield relabelled(parent, n)


@pytest.mark.parametrize("parent", list(generated_parents()))
def test_generated_and_relabelled_trees_match_the_reference(parent):
    check_against_reference(parent)


FLAWS = ("none", "two-roots", "self-loop", "cycle", "out-of-range")


@st.composite
def parent_arrays(draw, max_n=24):
    """A random relabelled tree with at most one flaw put in."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(range(n)))
    parent = [-1] * n
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    flaw = draw(st.sampled_from(FLAWS))
    v = draw(st.integers(0, n - 1))
    if flaw == "two-roots":
        parent[v] = -1
    elif flaw == "self-loop":
        parent[v] = v
    elif flaw == "cycle":
        # v's new parent is one of its descendants (or v): a cycle
        # beside the root, unless v is the root
        def above(w):
            while w >= 0:
                yield w
                w = parent[w]
        parent[v] = draw(st.sampled_from([w for w in range(n) if v in above(w)]))
    elif flaw == "out-of-range":
        parent[v] = draw(st.sampled_from([-5, -2, n, n + 3]))
    return parent


@settings(max_examples=300, deadline=None)
@given(parent_arrays())
def test_random_parent_arrays_match_the_reference(parent):
    check_against_reference(parent)


def brute_ancestors(parent, v):
    out = []
    while v >= 0:
        out.append(v)
        v = parent[v]
    return out


def test_judges_read_nothing_but_parent():
    for kind in GENERATOR_KINDS:
        parent = gen_tree(kind, 63, seed=5).parent.tolist()
        for p in (parent, relabelled(parent, 5)):
            t = RootedTree(p)
            # a judge that reads a derived order of the tree fails on None
            t.bfs = t.ptr = t.kids = None
            values = np.random.default_rng(len(p)).integers(-9, 10, t.n).tolist()
            up = [brute_ancestors(p, v) for v in range(t.n)]
            assert subtree_sums(t, values) == [
                sum(values[w] for w in range(t.n) if v in up[w]) for v in range(t.n)]
            assert root_path_sums(t, values) == [sum(values[a] for a in up[v])
                                                 for v in range(t.n)]
            for u in range(0, t.n, 5):
                for v in range(0, t.n, 3):
                    assert lca_naive(t, u, v) == next(a for a in up[u] if a in up[v])
            # nor did they work out a derived order on first use
            assert "sizes" not in vars(t) and "children" not in vars(t)


def figure_tree():
    return RootedTree(list(FIGURE_PARENTS))


def test_generator_examples():
    assert gen_tree("path", 3).parent.tolist() == [-1, 0, 1]
    assert gen_tree("star", 4).parent.tolist() == [-1, 0, 0, 0]
    cat = gen_tree("caterpillar", 6)
    assert cat.parent.tolist() == [-1, 0, 1, 0, 1, 2]  # spine 0-1-2, leaves 3,4,5
    assert cat.children[0] == [1, 3]
    pb = gen_tree("perfect-binary", 7)
    assert pb.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]


def test_generator_errors():
    with pytest.raises(ValueError):
        gen_tree("perfect-binary", 6)
    with pytest.raises(ValueError):
        gen_tree("path", 0)
    with pytest.raises(ValueError):
        gen_tree("bogus", 5)


def test_random_attachment_deterministic_and_valid():
    a = gen_tree("random-attachment", 300, seed=7)
    b = gen_tree("random-attachment", 300, seed=7)
    assert a.parent.tolist() == b.parent.tolist()
    c = gen_tree("random-attachment", 300, seed=8)
    assert a.parent.tolist() != c.parent.tolist()


def test_random_attachment_degree_cap():
    t = gen_tree("random-attachment", 500, seed=3, max_children=2)
    assert max(len(cs) for cs in t.children) <= 2


# -- the random-attachment streams against one scalar draw per vertex ----------

def scalar_random_attachment(n, seed, max_children=None):
    """The per-vertex generator the vector draw replaced."""
    rng = Lcg(seed)
    parent = [-1]
    if max_children is None:
        for i in range(1, n):
            parent.append(rng.next_below(i))
        return parent
    eligible = [0]
    nkids = [0] * n
    for i in range(1, n):
        p = eligible[rng.next_below(len(eligible))]
        parent.append(p)
        nkids[p] += 1
        if nkids[p] >= max_children:
            eligible[eligible.index(p)] = eligible[-1]
            eligible.pop()
        eligible.append(i)
    return parent


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 131_074])
def test_random_attachment_equals_scalar_draws(n, seed):
    # 131,074 vertices take 131,073 draws: one past the jump table's cap
    t = gen_tree("random-attachment", n, seed=seed)
    assert t.parent.tolist() == scalar_random_attachment(n, seed)


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 500])
def test_degree_capped_random_attachment_equals_scalar_draws(n, cap):
    t = gen_tree("random-attachment", n, seed=n + cap, max_children=cap)
    assert t.parent.tolist() == scalar_random_attachment(n, n + cap, cap)


def test_generated_trees_satisfy_invariants():
    rng = Lcg(99)
    kinds = ["path", "star", "caterpillar", "random-attachment"]
    for trial in range(1000):
        kind = kinds[trial % 4]
        n = 1 + rng.next_below(64)
        t = gen_tree(kind, n, seed=trial)  # constructor validates
        assert t.n == n
        assert sum(len(cs) for cs in t.children) == n - 1


def test_tree_validation_rejects_bad_structures():
    with pytest.raises(ValueError):
        RootedTree([0, -1, -1])  # two roots
    with pytest.raises(ValueError):
        RootedTree([1, 0])  # cycle, no root
    with pytest.raises(ValueError):
        RootedTree([-1, 5])  # parent out of range
    with pytest.raises(ValueError):
        RootedTree([-1, 0.5])  # not an integer
    with pytest.raises(ValueError):
        RootedTree([-1, 0, 3, 2])  # one root, and a cycle beside it


def test_subtree_sizes_examples():
    assert subtree_sizes(gen_tree("path", 3)) == [3, 2, 1]
    assert subtree_sizes(gen_tree("star", 4)) == [4, 1, 1, 1]
    assert subtree_sizes(figure_tree()) == [8, 3, 1, 1, 4, 1, 2, 1]


def test_treefix_oracle_with_unit_values_is_subtree_size():
    for trial in range(20):
        t = gen_tree("random-attachment", 50 + trial, seed=trial)
        assert subtree_sums(t, [1] * t.n) == subtree_sizes(t)


def test_root_path_sums_example():
    assert root_path_sums(gen_tree("path", 3), [1, 2, 3]) == [1, 3, 6]


def test_lca_naive_on_figure_tree():
    t = figure_tree()
    assert lca_naive(t, 5, 7) == 4
    assert lca_naive(t, 2, 3) == 1
    assert lca_naive(t, 3, 7) == 0
    assert lca_naive(t, 6, 6) == 6


def test_light_first_children_stable_ties():
    t = figure_tree()
    ptr, kids = light_first_csr(t, subtree_sizes(t))
    assert ptr.tolist() == [0, 2, 4, 4, 4, 6, 6, 7, 7]
    assert kids[0:2].tolist() == [1, 4]   # sizes 3 < 4
    assert kids[2:4].tolist() == [2, 3]   # tie broken by original order


def test_file_format_roundtrip(tmp_path):
    t = figure_tree()
    assert format_tree(gen_tree("path", 3)) == "3\n-1 0 1\n"
    p = tmp_path / "t.txt"
    p.write_text(format_tree(t))
    back = parse_tree(p.read_text())
    assert back.parent.tolist() == t.parent.tolist()
    t.values = list(range(8))
    p.write_text(format_tree(t))
    assert parse_tree(p.read_text()).values == list(range(8))


def test_values_of_the_wrong_length_are_rejected():
    with pytest.raises(ValueError, match="values length"):
        RootedTree([-1, 0], values=[1, 2, 3])
    t = RootedTree([-1, 0], values=[4, 5])
    with pytest.raises(ValueError, match="values length"):
        t.values = [1, 2, 3]
    assert t.values == [4, 5]
    t.values = None
    assert t.values is None


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_tree("3\n-1 0\n")
    with pytest.raises(ValueError):
        parse_tree("")


def test_read_queries(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("2 3\n0 5\n\n7 7\n")
    assert read_queries(p) == [(2, 3), (0, 5), (7, 7)]


@pytest.mark.parametrize("text, line", [
    ("0 1\n0 1 2\n", 2),
    ("\n\n0 x\n", 3),
    ("5\n", 1),
    ("0 1.5\n", 1),
])
def test_read_queries_names_the_malformed_line(tmp_path, text, line):
    p = tmp_path / "q.txt"
    p.write_text(text)
    bad = text.splitlines()[line - 1]
    with pytest.raises(ValueError) as err:
        read_queries(p)
    assert str(err.value) == (f"query file line {line}: expected two integers "
                              f"'u v', got {bad!r}")
