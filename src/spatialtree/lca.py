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
that step 4 walks one layer slice at a time.  Step 4 sorts the open query
endpoints by position once, so each layer finds every endpoint's cover range
by searching its few range starts into them, and drops the endpoints that
lie in none of them.  Queries, treefix values and results stay arrays from
intake to answers.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import SimState, all_reduce_barrier, broadcast_ranges
from .treefix import treefix_sum, treefix_topdown
from .trees import RootedTree, light_first_csr
from .virtual_tree import VirtualTree, _charge_local_broadcast, build_refs_protocol

# most queries one vertex may appear in; a pair (v, v) counts twice
MAX_MULTIPLICITY = 4
# modeled per-vertex words of LCA's own steps: its range and its parent's
# (two ends each), its layer and path root, and one slot per query it is in,
# which holds the other endpoint's position and then the answer
LCA_WORDS = 6 + MAX_MULTIPLICITY
NOT_PAIRS = "each query must be a pair of integers"


@dataclass
class PathDecomposition:
    """Each vertex's layer and path root, as int64 arrays."""

    layer: np.ndarray
    path_root: np.ndarray


def _new_path_indicators(t: RootedTree, sizes) -> np.ndarray:
    """1 where a vertex starts a new path: everywhere except the root and
    each vertex's heavy child, the last child in light-first order."""
    ptr, kids = light_first_csr(t, sizes)
    ind = np.ones(t.n, dtype=np.int64)
    ind[t.root] = 0
    ind[kids[ptr[1:][np.diff(ptr) > 0] - 1]] = 0
    return ind


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
    return PathDecomposition(layer, up)


def subtree_cover(decomp: PathDecomposition, sizes, layout: Layout) -> np.recarray:
    """One record per path root, with fields ``root``, ``lo``, ``hi`` (its
    contiguous position range) and ``layer``, sorted by layer and then by
    ``lo``.  The root's path is the only record on layer 0."""
    path_root = decomp.path_root
    root = np.flatnonzero(path_root == np.arange(len(path_root)))
    lo = layout.pos_arr[root]
    hi = lo + np.asarray(sizes)[root] - 1
    layer = decomp.layer[root]
    order = np.lexsort((lo, layer))
    return np.rec.fromarrays((root[order], lo[order], hi[order], layer[order]),
                             names="root,lo,hi,layer", formats=[np.int32] * 4)


def _last_start_at_or_below(starts, needles):
    """For sorted ``needles``, the index of the last of the sorted
    ``starts`` at or below each needle, or -1 below the first start; equal
    to ``np.searchsorted(starts, needles, side="right") - 1``.

    It searches the k starts into the m needles, O(k log m + m), where that
    expression searches the needles into the starts, O(m log k).
    """
    cnt = np.searchsorted(needles, starts)  # needles below each start
    return np.repeat(np.arange(-1, len(starts)),
                     np.diff(cnt, prepend=0, append=len(needles)))


def _query_pairs(queries) -> np.ndarray:
    """The queries as an (m, 2) array.  An integer array of that shape goes
    through as is; a sequence of pairs is converted in one pass, or, when
    it holds ints past int64, into an object array of Python ints.
    Anything else raises ValueError."""
    if isinstance(queries, np.ndarray):
        if queries.ndim != 2 or queries.shape[1] != 2 or queries.dtype.kind not in "iu":
            raise ValueError(NOT_PAIRS)
        return queries
    try:
        # array("q") takes ints and bools only, and fills fastest from a
        # list; the lengths catch ragged pairs, and bools go on to fail below
        ids = list(chain.from_iterable(queries))
        flat = array("q", ids)
        if (len(flat) == 2 * len(queries) and set(map(len, queries)) <= {2}
                and bool not in set(map(type, ids))):
            return np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    except (TypeError, OverflowError):
        pass
    try:
        q = np.array(queries, dtype=object).reshape(len(queries), 2)
    except ValueError:
        raise ValueError(NOT_PAIRS) from None
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in q.flat):
        raise ValueError(NOT_PAIRS)
    return q


def batched_lca(sim: SimState, t: RootedTree, layout: Layout, queries, seed: int):
    """Answer LCA queries, each vertex appearing in at most MAX_MULTIPLICITY
    of them.  A layout of another size, a query that is not a pair of
    integers, the first pair with a vertex outside [0, n) and a vertex
    above the limit raise ValueError before anything is sent.  Queries
    given as an (m, 2) integer array get an int64 array of answers; a
    sequence of pairs gets a list.

    Steps: subtree ranges via a unit-value treefix sum (settles the
    ancestor-descendant queries), parent ranges broadcast to children, path
    decomposition, then per layer a broadcast of r(w) minus r(x) inside every
    cover subtree, with an all-reduce barrier between layers.
    """
    n = t.n
    layout.check_size(n)
    q = _query_pairs(queries)
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
    vt = build_refs_protocol(sim, t, t.sizes, layout)

    # step 1: ranges from a unit treefix sum
    sizes = treefix_sum(sim, t, layout, np.ones(n, dtype=np.int64), rng.next_u64(),
                        vt=vt).astype(np.int32)
    lo_arr = layout.pos_arr.astype(np.int32)
    hi_arr = lo_arr + sizes - 1

    # step 2: every vertex sends its range to its children
    _charge_local_broadcast(sim, vt, layout.pos_arr)

    # step 3: path decomposition
    decomp = path_decomposition(sim, t, layout, t.sizes, rng.next_u64(), vt=vt)
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
    sim.note_words_many(lo_arr, LCA_WORDS)
    cover = cover[cover.root != t.root]  # the whole-tree subtree has no parent
    wpar = t.parent[cover.root]
    open_q = np.flatnonzero(answers < 0)
    qi = np.concatenate((open_q, open_q))
    mine = np.concatenate((pu[open_q], pv[open_q]))
    other = np.concatenate((pv[open_q], pu[open_q]))
    # the endpoints are sorted by position once, before the layer loop, so
    # each layer can search its range starts into them; cover subtrees
    # nest, so an endpoint outside every range of a layer is outside every
    # deeper one, and is dropped
    order = np.argsort(mine)
    qi, mine, other = qi[order], mine[order], other[order]
    _, starts = np.unique(cover.layer, return_index=True)
    for a, b in zip(starts, [*starts[1:], len(cover)]):
        # one layer: disjoint ranges, sorted by start
        elo, ehi = cover.lo[a:b], cover.hi[a:b]
        broadcast_ranges(sim, elo, ehi)
        i = _last_start_at_or_below(elo, mine)
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
        qi, mine, other = qi[inside], mine[inside], other[inside]
        all_reduce_barrier(sim)
    sim.rounds += len(starts)
    if (answers < 0).any():
        raise RuntimeError("a query was left unanswered")
    return answers if isinstance(queries, np.ndarray) else answers.tolist()
