import pytest

from spatialtree.rng import Lcg
from spatialtree.trees import (RootedTree, format_tree, gen_tree, lca_naive,
                               light_first_csr, parse_tree, read_queries,
                               root_path_sums, subtree_sizes, subtree_sums,
                               write_tree)

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def figure_tree():
    return RootedTree(list(FIGURE_PARENTS))


def test_generator_examples():
    assert gen_tree("path", 3).parent == [-1, 0, 1]
    assert gen_tree("star", 4).parent == [-1, 0, 0, 0]
    cat = gen_tree("caterpillar", 6)
    assert cat.parent == [-1, 0, 1, 0, 1, 2]  # spine 0-1-2, leaves 3,4,5
    assert cat.children[0] == [1, 3]
    pb = gen_tree("perfect-binary", 7)
    assert pb.parent == [-1, 0, 0, 1, 1, 2, 2]


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
    assert a.parent == b.parent
    c = gen_tree("random-attachment", 300, seed=8)
    assert a.parent != c.parent


def test_random_attachment_degree_cap():
    t = gen_tree("random-attachment", 500, seed=3, max_children=2)
    assert max(len(cs) for cs in t.children) <= 2


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
    write_tree(t, p)
    back = parse_tree(p.read_text())
    assert back.parent == t.parent
    t.values = list(range(8))
    write_tree(t, p)
    assert parse_tree(p.read_text()).values == list(range(8))


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
