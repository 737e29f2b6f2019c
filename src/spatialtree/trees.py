"""Rooted trees: representation, generators, file format, and the
sequential reference computations every simulated algorithm is checked
against."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .rng import Lcg

# vertex ids a Python-level walk holds as one list
_WALK_BLOCK = 1 << 13

GENERATOR_KINDS = ("path", "perfect-binary", "caterpillar", "star", "random-attachment")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class RootedTree:
    """Rooted tree over vertices 0..n-1, one parent pointer per vertex.

    ``n`` is the vertex count.  ``parent`` is a read-only int32 array with
    -1 at ``root``.  ``ptr`` and ``kids`` are the child CSR in id order:
    v's children are ``kids[ptr[v]:ptr[v+1]]``, ascending.  ``bfs`` is the
    breadth-first order of the walk that checks the input.  ``sizes``
    (subtree sizes) is worked out on first use and kept; ``children`` (the
    CSR as Python lists) is built on each read.  ``values`` optionally
    holds one integer per vertex; its length is checked whenever it is set.

    Any input that is not a tree raises ValueError.
    """

    def __init__(self, parent, values=None):
        a = np.asarray(parent)
        if a.ndim != 1 or len(a) == 0:
            raise ValueError("tree must be a non-empty sequence of parent ids")
        n = len(a)
        if a.dtype.kind not in "iu":
            raise ValueError(f"parent ids must be integers in [-1, {n})")
        # a + 1 < 0 rather than a < -1, which an unsigned dtype cannot compare
        bad = np.flatnonzero((a + 1 < 0) | (a >= n))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has invalid parent {a[bad[0]]}")
        roots = np.flatnonzero(a < 0)
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self.n = n
        self.parent = _frozen(a.astype(np.int32))
        self.root = int(roots[0])
        # a stable sort by parent keeps each block in id order; the root's
        # -1 sorts first
        self.kids = _frozen(np.argsort(self.parent, kind="stable")[1:].astype(np.int32))
        self.ptr = _frozen(np.searchsorted(self.parent[self.kids],
                                           np.arange(n + 1)).astype(np.int32))
        # every vertex sits in its parent's block only, so the walk from the
        # root reaches each vertex at most once, and all n iff no vertex
        # lies on a cycle
        ptr, kids = self.ptr.tolist(), self.kids.tolist()
        order = [self.root]
        grow = order.extend
        for v in order:  # the list grows while it is walked
            lo, hi = ptr[v], ptr[v + 1]
            if lo != hi:
                grow(kids[lo:hi])
        if len(order) != n:
            raise ValueError("parent links do not form a single tree")
        self.bfs = _frozen(np.array(order, dtype=np.int32))
        self.values = values

    @property
    def values(self):
        """One integer per vertex, or None; assigning a sequence of the
        wrong length raises ValueError."""
        return self._values

    @values.setter
    def values(self, values) -> None:
        if values is not None and len(values) != self.n:
            raise ValueError("values length must match vertex count")
        self._values = values

    @cached_property
    def sizes(self) -> np.ndarray:
        """Subtree sizes as a read-only int32 array, bottom-up over ``bfs``.
        The walk takes the ids in blocks of ``_WALK_BLOCK``, so that only one
        block of them is a Python list at a time."""
        s = [1] * self.n
        up = self.bfs[:0:-1]
        for lo in range(0, len(up), _WALK_BLOCK):
            block = up[lo:lo + _WALK_BLOCK]
            for v, p in zip(block.tolist(), self.parent[block].tolist()):
                s[p] += s[v]
        return _frozen(np.array(s, dtype=np.int32))

    @property
    def children(self) -> list[list[int]]:
        """Each vertex's children in CSR order, as new Python lists."""
        ptr, kids = self.ptr.tolist(), self.kids.tolist()
        return [kids[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def gen_tree(kind: str, n: int, seed: int = 0, max_children: int | None = None) -> RootedTree:
    """Deterministic tree generators for the benchmark families.

    Random attachment gives vertex i (0 < i < n) the parent that the i-th
    ``Lcg(seed)`` draw takes modulo i, the same as one ``next_below(i)`` per
    vertex; the n - 1 draws are taken as one vector.  ``max_children``
    optionally caps it so the result has bounded degree: vertex i then
    takes the i-th draw modulo the number of vertices still open to
    children.  Other kinds ignore ``max_children``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "path":
        parent = np.arange(-1, n - 1)
    elif kind == "perfect-binary":
        if n & (n + 1):
            raise ValueError("perfect binary tree needs n = 2^h - 1")
        parent = (np.arange(n) - 1) // 2  # floor division gives the root -1
    elif kind == "star":
        parent = np.concatenate(([-1], np.zeros(n - 1, dtype=np.int64)))
    elif kind == "caterpillar":
        spine = (n + 1) // 2
        parent = np.concatenate((np.arange(-1, spine - 1), np.arange(n - spine)))
    elif kind == "random-attachment":
        draws = Lcg(seed).next_u64s(n - 1)
        if max_children is None:
            draws %= np.arange(1, n, dtype=np.uint64)
            parent = np.empty(n, dtype=np.int32)
            parent[0] = -1
            parent[1:] = draws  # each draw is below its vertex id, so it fits
        else:
            parent = [-1]
            eligible = [0]
            nkids = [0] * n
            for i, d in enumerate(draws.tolist(), 1):
                p = eligible[d % len(eligible)]
                parent.append(p)
                nkids[p] += 1
                if nkids[p] >= max_children:
                    eligible[eligible.index(p)] = eligible[-1]
                    eligible.pop()
                eligible.append(i)
    else:
        raise ValueError(f"unknown tree kind {kind!r}")
    return RootedTree(parent)


def subtree_sizes(t: RootedTree) -> list[int]:
    """Exact subtree sizes, worked out once per tree."""
    return t.sizes.tolist()


# The three judges below read nothing but ``parent``: no derived order of
# the tree, so they stay independent of the code they check.

def _leaves_first(parent: list[int]) -> list[int]:
    """Every vertex after all of its children: a vertex joins the order
    once its last child has."""
    waiting = [0] * len(parent)
    for p in parent:
        if p >= 0:
            waiting[p] += 1
    order = [v for v, w in enumerate(waiting) if not w]
    for v in order:  # the list grows while it is walked
        p = parent[v]
        if p >= 0:
            waiting[p] -= 1
            if not waiting[p]:
                order.append(p)
    return order


def subtree_sums(t: RootedTree, values) -> list[int]:
    """Per-vertex sum over its subtree, computed sequentially."""
    parent = t.parent.tolist()
    s = list(values)
    for v in _leaves_first(parent):
        if parent[v] >= 0:
            s[parent[v]] += s[v]
    return s


def root_path_sums(t: RootedTree, values) -> list[int]:
    """Per-vertex sum along the path from the root, computed sequentially."""
    parent = t.parent.tolist()
    s = list(values)
    for v in reversed(_leaves_first(parent)):
        if parent[v] >= 0:
            s[v] += s[parent[v]]
    return s


def lca_naive(t: RootedTree, u: int, v: int) -> int:
    """Ancestor-set intersection; exact by definition."""
    up = t.parent.item
    anc = set()
    x = u
    while x != -1:
        anc.add(x)
        x = up(x)
    x = v
    while x not in anc:
        x = up(x)
    return x


def size_array(n: int, sizes) -> np.ndarray:
    """``sizes`` as an int64 array; ValueError unless it holds n sizes."""
    size = np.asarray(sizes, dtype=np.int64)
    if size.shape != (n,):
        raise ValueError(f"{size.size} subtree sizes given for {n} vertices")
    return size


def light_first_csr(t: RootedTree, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex's children in light-first order, as int32 CSR arrays.

    Block v is ``kids[ptr[v]:ptr[v+1]]``: v's children by ascending subtree
    size, ties in id order, so the last entry is the heavy (rightmost)
    child.  ``ptr`` is the tree's own.  This is the one place light-first
    order is decided.  Sizes of any other length raise ValueError.
    """
    # lexsort is stable: equal sizes keep the id order of t.kids
    order = np.lexsort((size_array(t.n, sizes)[t.kids], t.parent[t.kids]))
    return t.ptr, t.kids[order]


def format_tree(t: RootedTree) -> str:
    lines = [str(t.n), " ".join(map(str, t.parent.tolist()))]
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
