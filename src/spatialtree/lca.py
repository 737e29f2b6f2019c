"""Batched lowest common ancestors via subtree covers.

Light-first order makes every subtree a contiguous position range, so
ancestor-descendant queries reduce to range containment.  For the rest, the
heavy-light path decomposition (heavy child = rightmost child) yields a
subtree cover: one subtree per path root, at most O(log n) covering any
vertex.  If LCA(u, v) = w is neither endpoint, some cover subtree S rooted
at a child x of w contains exactly one endpoint, and that endpoint sees the
other's position inside r(w) minus r(x).

The local work between the simulated steps is numpy array passes: path
roots by pointer jumping, and the cover as one record array sorted by layer
that step 4 walks one layer slice at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import SimState, all_reduce_barrier, broadcast_ranges
from .treefix import treefix_sum, treefix_topdown
from .trees import RootedTree, light_first_csr, subtree_sizes
from .virtual_tree import VirtualTree, build_refs_protocol, local_broadcast

# most queries one vertex may appear in; a pair (v, v) counts twice
MAX_MULTIPLICITY = 4


@dataclass
class PathDecomposition:
    layer: list[int]
    path_root: list[int]


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
    top-down treefix sum over new-path indicators.  Path roots come from
    pointer jumping: a path's first vertex points at itself, every other
    vertex at its parent, and the pointers double until none moves."""
    ind = _new_path_indicators(t, sizes)
    layer = treefix_topdown(sim, t, layout, ind, seed, vt=vt)
    up = np.where(ind, np.arange(t.n), t.parent)
    up[t.root] = t.root
    while not np.array_equal(jump := up[up], up):
        up = jump
    return PathDecomposition(layer, up.tolist())


def subtree_cover(decomp: PathDecomposition, sizes, layout: Layout) -> np.recarray:
    """One record per path root, with fields ``root``, ``lo``, ``hi`` (its
    contiguous position range) and ``layer``, sorted by layer and then by
    ``lo``.  The root's path is the only record on layer 0."""
    path_root = np.asarray(decomp.path_root)
    root = np.flatnonzero(path_root == np.arange(len(path_root)))
    lo = np.asarray(layout.pos)[root]
    hi = lo + np.asarray(sizes)[root] - 1
    layer = np.asarray(decomp.layer)[root]
    order = np.lexsort((lo, layer))
    return np.rec.fromarrays((root[order], lo[order], hi[order], layer[order]),
                             names="root,lo,hi,layer", formats=[np.int32] * 4)


def batched_lca(sim: SimState, t: RootedTree, layout: Layout,
                queries: list[tuple[int, int]], seed: int) -> list[int]:
    """Answer LCA queries, each vertex appearing in at most MAX_MULTIPLICITY
    of them.  A query that is not a pair of integers, the first pair with a
    vertex outside [0, n) and a vertex above the limit raise ValueError
    before anything is sent.

    Steps: subtree ranges via a unit-value treefix sum (settles the
    ancestor-descendant queries), parent ranges broadcast to children, path
    decomposition, then per layer a broadcast of r(w) minus r(x) inside every
    cover subtree, with an all-reduce barrier between layers.
    """
    n = t.n
    try:
        q = np.asarray(queries).reshape(len(queries), 2)
        if q.size and q.dtype.kind not in "iu":
            # an int beyond int64 makes the array float or object, so look
            # at the query entries themselves
            q = np.array(queries, dtype=object).reshape(len(queries), 2)
            if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                       for x in q.flat):
                raise ValueError
    except ValueError:
        raise ValueError("each query must be a pair of integers") from None
    bad = np.flatnonzero(((q < 0) | (q >= n)).any(axis=1))
    if bad.size:
        u, v = q[bad[0]]
        raise ValueError(f"query ({u}, {v}) out of range")
    qu, qv = q.astype(np.int32).T
    worst = np.bincount(np.concatenate((qu, qv)), minlength=1).max()
    if worst > MAX_MULTIPLICITY:
        raise ValueError(
            f"a vertex appears in {worst} queries, above the limit of "
            f"{MAX_MULTIPLICITY}; split hot vertices before querying")

    rng = Lcg(seed)
    sizes_ref = subtree_sizes(t)
    vt = build_refs_protocol(sim, t, sizes_ref, layout)

    # step 1: ranges from a unit treefix sum
    sizes = np.array(treefix_sum(sim, t, layout, [1] * n, rng.next_u64(), vt=vt),
                     dtype=np.int32)
    lo_arr = np.array(layout.pos, dtype=np.int32)
    hi_arr = lo_arr + sizes - 1

    # step 2: every vertex sends its range to its children
    ranges = np.empty(n, dtype=[("lo", np.int32), ("hi", np.int32)])
    ranges["lo"], ranges["hi"] = lo_arr, hi_arr
    local_broadcast(sim, vt, layout, ranges)

    # step 3: path decomposition
    decomp = path_decomposition(sim, t, layout, sizes_ref, rng.next_u64(), vt=vt)
    cover = subtree_cover(decomp, sizes, layout)

    # the ranges settle the ancestor-descendant queries; that is local work,
    # left until here so its arrays are not alive during step 3
    pu = lo_arr[qu]
    pv = lo_arr[qv]
    answers = np.full(len(qu), -1, dtype=np.int64)
    u_in_v = (pv <= pu) & (pu <= hi_arr[qv])
    answers[u_in_v] = qv[u_in_v]
    v_in_u = (pu <= pv) & (pv <= hi_arr[qu])
    answers[v_in_u] = qu[v_in_u]  # also settles u == v

    # step 4: per layer, broadcast r(w) \ r(x) within each cover subtree;
    # each open query is matched from both endpoints, "mine" seeing "other"
    cover = cover[cover.root != t.root]  # the whole-tree subtree has no parent
    wpar = np.array(t.parent, dtype=np.int32)[cover.root]
    open_q = np.flatnonzero(answers < 0)
    qi = np.concatenate((open_q, open_q))
    mine = np.concatenate((pu[open_q], pv[open_q]))
    other = np.concatenate((pv[open_q], pu[open_q]))
    _, starts = np.unique(cover.layer, return_index=True)
    for a, b in zip(starts, [*starts[1:], len(cover)]):
        # one layer: disjoint ranges, sorted by start
        elo, ehi = cover.lo[a:b], cover.hi[a:b]
        broadcast_ranges(sim, elo, ehi)
        i = np.searchsorted(elo, mine, side="right") - 1
        inside = i >= 0
        i[~inside] = 0
        inside &= mine <= ehi[i]
        w = wpar[a:b][i]
        hit = inside & (((lo_arr[w] <= other) & (other < elo[i]))
                        | ((ehi[i] < other) & (other <= hi_arr[w])))
        q, w = qi[hit], w[hit]
        prev = answers[q]
        answers[q] = w
        if ((prev >= 0) & (prev != w)).any() or (answers[q] != w).any():
            raise RuntimeError("conflicting answers for one query")
        all_reduce_barrier(sim)
    sim.rounds += len(starts)
    if (answers < 0).any():
        raise RuntimeError("a query was left unanswered")
    return answers.tolist()
