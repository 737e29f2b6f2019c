"""Batched lowest common ancestors via subtree covers.

Light-first order makes every subtree a contiguous position range, so
ancestor-descendant queries reduce to range containment.  For the rest, the
heavy-light path decomposition (heavy child = rightmost child) yields a
subtree cover: one subtree per path root, at most O(log n) covering any
vertex.  If LCA(u, v) = w is neither endpoint, some cover subtree S rooted
at a child x of w contains exactly one endpoint, and that endpoint sees the
other's position inside r(w) minus r(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import SimState, all_reduce_barrier, broadcast_ranges
from .treefix import treefix_sum, treefix_topdown
from .trees import RootedTree, bfs_order, light_first_csr, subtree_sizes
from .virtual_tree import VirtualTree, build_refs_protocol, local_broadcast


@dataclass
class PathDecomposition:
    layer: list[int]
    path_root: list[int]


@dataclass(frozen=True)
class CoverEntry:
    root: int
    lo: int
    hi: int
    layer: int


def _new_path_indicators(t: RootedTree, sizes) -> list[int]:
    """1 where a vertex starts a new path: everywhere except the root and
    each vertex's heavy child, the last child in light-first order."""
    ptr, kids = light_first_csr(t, sizes)
    ind = np.ones(t.n, dtype=np.int64)
    ind[t.root] = 0
    ind[kids[ptr[1:][np.diff(ptr) > 0] - 1]] = 0
    return ind.tolist()


def path_decomposition(sim: SimState, t: RootedTree, layout: Layout, sizes,
                       seed: int, vt: VirtualTree | None = None) -> PathDecomposition:
    """Heavy-light decomposition; layers are computed on the simulator with a
    top-down treefix sum over new-path indicators."""
    ind = _new_path_indicators(t, sizes)
    layer = treefix_topdown(sim, t, layout, ind, seed, vt=vt)
    path_root = [0] * t.n
    for v in bfs_order(t):
        p = t.parent[v]
        path_root[v] = v if (p < 0 or ind[v]) else path_root[p]
    return PathDecomposition(layer, path_root)


def subtree_cover(decomp: PathDecomposition, sizes, layout: Layout) -> list[CoverEntry]:
    """One entry per path root: its contiguous range and its layer."""
    pos = layout.pos
    entries = []
    for v in range(len(sizes)):
        if decomp.path_root[v] == v:
            entries.append(CoverEntry(v, pos[v], pos[v] + sizes[v] - 1,
                                      decomp.layer[v]))
    entries.sort(key=lambda e: (e.layer, e.lo))
    return entries


def batched_lca(sim: SimState, t: RootedTree, layout: Layout,
                queries: list[tuple[int, int]], seed: int,
                max_multiplicity: int = 4) -> list[int]:
    """Answer LCA queries, each vertex appearing in at most max_multiplicity
    of them.

    Steps: subtree ranges via a unit-value treefix sum (settles the
    ancestor-descendant queries), parent ranges broadcast to children, path
    decomposition, then per layer a broadcast of r(w) minus r(x) inside every
    cover subtree, with an all-reduce barrier between layers.
    """
    n = t.n
    pos = layout.pos
    mult = [0] * n
    for u, v in queries:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"query ({u}, {v}) out of range")
        mult[u] += 1
        mult[v] += 1
    worst = max(mult, default=0)
    if worst > max_multiplicity:
        raise ValueError(
            f"a vertex appears in {worst} queries, above the limit of "
            f"{max_multiplicity}; split hot vertices before querying")

    rng = Lcg(seed)
    sizes_ref = subtree_sizes(t)
    vt = build_refs_protocol(sim, t, sizes_ref, layout)

    # step 1: ranges from a unit treefix sum
    sums = treefix_sum(sim, t, layout, [1] * n, rng.next_u64(), vt=vt)
    hi = [p + s - 1 for p, s in zip(pos, sums)]

    # step 2: every vertex sends its range to its children
    local_broadcast(sim, vt, layout, list(zip(pos, hi)))

    # step 3: path decomposition
    decomp = path_decomposition(sim, t, layout, sizes_ref, rng.next_u64(), vt=vt)
    cover = subtree_cover(decomp, sums, layout)

    # the ranges settle the ancestor-descendant queries; that is local work,
    # left until here so its arrays are not alive during step 3
    lo_arr = np.array(pos, dtype=np.int32)
    hi_arr = np.array(hi, dtype=np.int32)
    qu, qv = np.array(queries, dtype=np.int32).reshape(-1, 2).T
    pu = lo_arr[qu]
    pv = lo_arr[qv]
    answers = np.full(len(queries), -1, dtype=np.int64)
    u_in_v = (pv <= pu) & (pu <= hi_arr[qv])
    answers[u_in_v] = qv[u_in_v]
    v_in_u = (pu <= pv) & (pv <= hi_arr[qu])
    answers[v_in_u] = qu[v_in_u]  # also settles u == v

    # step 4: per layer, broadcast r(w) \ r(x) within each cover subtree;
    # each open query is matched from both endpoints, "mine" seeing "other"
    by_layer: dict[int, list[CoverEntry]] = {}
    for e in cover:
        if e.root != t.root:  # the whole-tree subtree has no parent
            by_layer.setdefault(e.layer, []).append(e)
    open_q = np.flatnonzero(answers < 0)
    qi = np.concatenate((open_q, open_q))
    mine = np.concatenate((pu[open_q], pv[open_q]))
    other = np.concatenate((pv[open_q], pu[open_q]))
    parent = np.array(t.parent, dtype=np.int32)
    for layer in sorted(by_layer):
        entries = by_layer[layer]  # disjoint ranges, sorted by start
        elo = np.array([e.lo for e in entries], dtype=np.int32)
        ehi = np.array([e.hi for e in entries], dtype=np.int32)
        broadcast_ranges(sim, elo, ehi)
        wpar = parent[[e.root for e in entries]]
        i = np.searchsorted(elo, mine, side="right") - 1
        inside = i >= 0
        i[~inside] = 0
        inside &= mine <= ehi[i]
        w = wpar[i]
        hit = inside & (((lo_arr[w] <= other) & (other < elo[i]))
                        | ((ehi[i] < other) & (other <= hi_arr[w])))
        q, w = qi[hit], w[hit]
        prev = answers[q]
        answers[q] = w
        if ((prev >= 0) & (prev != w)).any() or (answers[q] != w).any():
            raise RuntimeError("conflicting answers for one query")
        all_reduce_barrier(sim)
    sim.rounds += len(by_layer)
    if (answers < 0).any():
        raise RuntimeError("a query was left unanswered")
    return answers.tolist()
