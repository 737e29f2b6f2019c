"""Rooted trees: representation, generators, file format, and the
sequential reference computations every simulated algorithm is checked
against."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .rng import Lcg

GENERATOR_KINDS = ("path", "perfect-binary", "caterpillar", "star", "random-attachment")


@dataclass
class RootedTree:
    """Rooted tree with ordered children; parent[root] == -1."""

    parent: list[int]
    children: list[list[int]] = field(default_factory=list)
    values: list[int] | None = None

    def __post_init__(self):
        n = len(self.parent)
        if n == 0:
            raise ValueError("tree must have at least one vertex")
        for v, p in enumerate(self.parent):
            if p != -1 and not 0 <= p < n:
                raise ValueError(f"vertex {v} has invalid parent {p}")
        if not self.children:
            ch: list[list[int]] = [[] for _ in range(n)]
            for v, p in enumerate(self.parent):
                if p >= 0:
                    ch[p].append(v)
            self.children = ch
        self.validate()

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self._root

    def validate(self):
        n = len(self.parent)
        roots = [v for v, p in enumerate(self.parent) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self._root = roots[0]
        for v, p in enumerate(self.parent):
            if p != -1 and not 0 <= p < n:
                raise ValueError(f"vertex {v} has invalid parent {p}")
        if sum(len(c) for c in self.children) != n - 1:
            raise ValueError("children lists do not cover n-1 edges")
        # reachability from the root doubles as the acyclicity check
        seen = 0
        stack = [self._root]
        mark = [False] * n
        mark[self._root] = True
        while stack:
            v = stack.pop()
            seen += 1
            for c in self.children[v]:
                if mark[c]:
                    raise ValueError("cycle or repeated child link detected")
                mark[c] = True
                stack.append(c)
        if seen != n:
            raise ValueError("parent links do not form a single tree")
        if self.values is not None and len(self.values) != n:
            raise ValueError("values length must match vertex count")


def gen_tree(kind: str, n: int, seed: int = 0, max_children: int | None = None) -> RootedTree:
    """Deterministic tree generators for the benchmark families.

    ``max_children`` optionally caps random attachment so the result has
    bounded degree; other kinds ignore it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "path":
        parent = [-1] + list(range(n - 1))
    elif kind == "perfect-binary":
        if n & (n + 1):
            raise ValueError("perfect binary tree needs n = 2^h - 1")
        parent = [-1] + [(i - 1) // 2 for i in range(1, n)]
    elif kind == "star":
        parent = [-1] + [0] * (n - 1)
    elif kind == "caterpillar":
        spine = (n + 1) // 2
        parent = [-1] + list(range(spine - 1))
        parent += list(range(n - spine))
    elif kind == "random-attachment":
        rng = Lcg(seed)
        parent = [-1]
        if max_children is None:
            for i in range(1, n):
                parent.append(rng.next_below(i))
        else:
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
    else:
        raise ValueError(f"unknown tree kind {kind!r}")
    return RootedTree(parent)


def bfs_order(t: RootedTree) -> list[int]:
    order = [t.root]
    head = 0
    while head < len(order):
        order.extend(t.children[order[head]])
        head += 1
    return order


def dfs_preorder(t: RootedTree) -> list[int]:
    order = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(t.children[v]))
    return order


def subtree_sizes(t: RootedTree) -> list[int]:
    """Exact bottom-up subtree sizes (the oracle for every simulated path)."""
    s = [1] * t.n
    for v in reversed(bfs_order(t)):
        p = t.parent[v]
        if p >= 0:
            s[p] += s[v]
    return s


def subtree_sums(t: RootedTree, values) -> list[int]:
    """Per-vertex sum over its subtree, computed sequentially."""
    s = list(values)
    for v in reversed(bfs_order(t)):
        p = t.parent[v]
        if p >= 0:
            s[p] += s[v]
    return s


def root_path_sums(t: RootedTree, values) -> list[int]:
    """Per-vertex sum along the path from the root, computed sequentially."""
    s = list(values)
    for v in bfs_order(t):
        p = t.parent[v]
        if p >= 0:
            s[v] += s[p]
    return s


def lca_naive(t: RootedTree, u: int, v: int) -> int:
    """Ancestor-set intersection; exact by definition."""
    anc = set()
    x = u
    while x != -1:
        anc.add(x)
        x = t.parent[x]
    x = v
    while x not in anc:
        x = t.parent[x]
    return x


def light_first_csr(t: RootedTree, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex's children in light-first order, as int64 CSR arrays.

    Block v is ``kids[ptr[v]:ptr[v+1]]``: v's children by ascending subtree
    size, ties in ``t.children`` order, so the last entry is the heavy
    (rightmost) child.  This is the one place light-first order is decided.
    """
    deg = np.fromiter(map(len, t.children), np.int64, t.n)
    kids = np.fromiter(chain.from_iterable(t.children), np.int64, t.n - 1)
    # lexsort is stable: equal sizes keep their place in t.children
    order = np.lexsort((np.asarray(sizes, dtype=np.int64)[kids],
                        np.repeat(np.arange(t.n), deg)))
    return np.concatenate(([0], np.add.accumulate(deg))), kids[order]


def write_tree(t: RootedTree, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_tree(t))


def format_tree(t: RootedTree) -> str:
    lines = [str(t.n), " ".join(str(p) for p in t.parent)]
    if t.values is not None:
        lines.append(" ".join(str(v) for v in t.values))
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> RootedTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("tree file needs a count line and a parent line")
    n = int(lines[0])
    parent = [int(x) for x in lines[1].split()]
    if len(parent) != n:
        raise ValueError(f"expected {n} parent entries, got {len(parent)}")
    values = None
    if len(lines) >= 3:
        values = [int(x) for x in lines[2].split()]
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
    return RootedTree(parent, values=values)


def read_tree(path) -> RootedTree:
    with open(path) as fh:
        return parse_tree(fh.read())


def read_queries(path) -> list[tuple[int, int]]:
    """Query file: one 'u v' pair of integers per line; blank lines are
    skipped.  A malformed line raises ValueError naming its number."""
    out = []
    with open(path) as fh:
        for i, ln in enumerate(fh, 1):
            if ln.strip():
                try:
                    u, v = map(int, ln.split())
                except ValueError:
                    raise ValueError(f"query file line {i}: expected two integers "
                                     f"'u v', got {ln.strip()!r}") from None
                out.append((u, v))
    return out
