"""Light-first tree layouts on space-filling curves, plus BFS/DFS baselines.

A light-first layout stores each vertex's children contiguously after it,
smallest subtree first, so that parent-child messages stay short once the
linear order is lifted onto a distance-bound curve.  The simulated builder
follows the four-step pipeline (sizes via a ranked Euler tour, a second tour
with size-sorted children, first-occurrence compaction, permutation onto the
curve); the direct constructor is its sequential oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curves import CurveKind, cell_distances, curve_coords
from .listrank import list_rank, subtree_sizes_via_tour, tour_links
from .rng import Lcg
from .sim import CostReport, Placement, SimState, compact, permute
from .trees import RootedTree, light_first_csr


@dataclass(frozen=True, eq=False)
class Layout:
    """Bijection between vertices and the first n positions of a curve.

    ``pos_arr`` is a read-only intp array of each vertex's position, which
    the simulated steps index with; ``pos`` is it as a list, worked out on
    first read.  Layouts are equal when kind, k and positions are.
    """

    kind: CurveKind
    k: int
    pos_arr: np.ndarray = field(repr=False)

    def __eq__(self, other):
        return (isinstance(other, Layout) and (self.kind, self.k) == (other.kind, other.k)
                and np.array_equal(self.pos_arr, other.pos_arr))

    @cached_property
    def pos(self) -> list[int]:
        return self.pos_arr.tolist()

    @property
    def n(self) -> int:
        return len(self.pos_arr)

    @staticmethod
    def from_positions(kind: CurveKind, pos) -> "Layout":
        """The layout putting vertex v at ``pos[v]``, from a copy of a list or
        integer array; raises ValueError unless pos permutes [0, n)."""
        placement = Placement.for_size(kind, len(pos))
        at = np.asarray(pos)
        if at.ndim != 1 or at.dtype.kind not in "iu":
            raise ValueError("positions must be integers")
        # a value past intp wraps, which the bijection check then rejects
        at = at.astype(np.intp)
        if not np.array_equal(np.sort(at), np.arange(len(pos))):
            raise ValueError("positions are not a bijection onto [0, n)")
        at.flags.writeable = False
        return Layout(CurveKind(kind), placement.k, at)

    def placement(self) -> Placement:
        return Placement(self.kind, self.k, self.n)

    def check_size(self, n: int) -> None:
        """Raise ValueError unless the layout places exactly n vertices."""
        if self.n != n:
            raise ValueError(f"layout places {self.n} vertices, the tree has {n}")


def _preorder_positions(t: RootedTree, ptr, kids, sizes) -> np.ndarray:
    """Preorder positions, as an int32 array, that lay out each subtree
    contiguously, every vertex's children following it in the order of the
    child CSR ``(ptr, kids)``."""
    # a child sits 1 past its parent plus its earlier siblings' sizes; the
    # running sums can pass 2^31, the offsets stay below n
    size = np.asarray(sizes, dtype=np.int64)[kids]
    before = np.add.accumulate(size) - size
    pos = np.zeros(t.n, dtype=np.int32)
    pos[kids] = 1 + before - before[np.repeat(ptr[:-1], np.diff(ptr))]
    del size, before  # freed before the doubling's temporaries
    # sum those offsets along each root path by pointer doubling
    up = t.parent.copy()
    while (live := np.flatnonzero(up >= 0)).size:
        pos[live] += pos[up[live]]
        up[live] = up[up[live]]
    return pos


def _light_first_array(t: RootedTree, sizes) -> np.ndarray:
    if sizes is None:
        sizes = t.sizes
    return _preorder_positions(t, *light_first_csr(t, sizes), sizes)


def light_first_positions(t: RootedTree, sizes=None) -> list[int]:
    """Direct construction: lay out each subtree contiguously, lighter first."""
    return _light_first_array(t, sizes).tolist()


def light_first_layout(t: RootedTree, kind: CurveKind = CurveKind.HILBERT,
                       sizes=None) -> Layout:
    return Layout.from_positions(kind, _light_first_array(t, sizes))


def build_baseline(t: RootedTree, order_kind: str, kind: CurveKind) -> Layout:
    """BFS level order or DFS preorder, children in id order."""
    if order_kind == "bfs":
        pos = np.empty(t.n, dtype=np.int64)
        pos[t.bfs] = np.arange(t.n)
    elif order_kind == "dfs":
        pos = _preorder_positions(t, t.ptr, t.kids, t.sizes)
    else:
        raise ValueError(f"unknown baseline {order_kind!r}")
    return Layout.from_positions(kind, pos)


def build_light_first(t: RootedTree, kind: CurveKind, seed: int = 0,
                      audit_memory: bool = False,
                      trace=False) -> tuple[Layout, CostReport, SimState]:
    """Simulated four-step pipeline on a working grid of 2n-1 tour slots.

    1. subtree sizes via a ranked Euler tour; 2. second tour visiting
    children in increasing size order; 3. tour slots permuted to their rank
    positions, first occurrences compacted to the front; 4. the compaction's
    routing is the permutation onto the curve.  The returned layout indexes
    the minimal grid for n vertices; the working-grid sim is returned for
    trace and audit inspection.  ``trace`` is passed on to its ``SimState``.
    """
    n = t.n
    kind = CurveKind(kind)
    if n == 1:
        sim = SimState(Placement.for_size(kind, 1), trace=trace,
                       audit_memory=audit_memory)
        return Layout.from_positions(kind, [0]), CostReport(0, 0, 0, 0), sim
    rng = Lcg(seed)
    placement = Placement.for_size(kind, 2 * n - 1)
    sim = SimState(placement, trace=trace, audit_memory=audit_memory)
    sizes = subtree_sizes_via_tour(sim, t, rng.next_u64())
    # id, first/last rank, size, succ link, coin
    sim.note_words_many(range(n), 6)
    _, kids = light_first_csr(t, sizes)
    succ, head, _ = tour_links(t, kids)
    rank = list_rank(sim, succ, head, rng.next_u64())
    permute(sim, rank)
    flags = np.zeros(len(rank), dtype=bool)
    flags[rank[:n]] = True  # slots below n are first visits
    dest, count = compact(sim, flags)
    if count != n:
        raise RuntimeError("first-occurrence compaction lost vertices")
    layout = Layout.from_positions(kind, dest[rank[:n]])
    return layout, sim.report(), sim


def verify_light_first(t: RootedTree, sizes, layout: Layout) -> bool:
    """True iff every vertex's children, taken in position order, are
    size-ascending and sit at 1 + pos(v) + sum of lighter siblings' sizes.

    Ties are free: any arrangement of equal-size siblings qualifies.  Reads
    the child CSR and ``pos_arr`` only, so it caches nothing on ``t`` or
    ``layout``.  Raises ValueError unless both hold one entry per vertex.
    """
    size = np.asarray(sizes, dtype=np.int64)
    if size.shape != (t.n,) or layout.n != t.n:
        raise ValueError("one position and one size per vertex required")
    pos = layout.pos_arr
    # each child block in position order; the blocks keep their CSR slots
    kids = t.kids[np.lexsort((pos[t.kids], t.parent[t.kids]))]
    size = size[kids]
    first = np.repeat(t.ptr[:-1], np.diff(t.ptr))  # each slot's block start
    # a child sits 1 past its parent plus its earlier siblings' sizes
    before = np.add.accumulate(size) - size
    if not np.array_equal(pos[kids], pos[t.parent[kids]] + 1 + before - before[first]):
        return False
    # sizes do not decrease within a block, the first not below 0
    prev = np.zeros_like(size)
    prev[1:] = size[:-1]
    prev[first] = 0
    return bool((size >= prev).all())


class NeighborStats(NamedTuple):
    mean: float
    max: int


def neighbor_distance_stats(t: RootedTree, layout: Layout) -> NeighborStats:
    """Mean and max curve distance between parent and child over all edges."""
    if t.n == 1:
        return NeighborStats(0.0, 0)
    words = curve_coords(layout.kind, layout.k).T.view(np.int64).reshape(-1)
    pos = layout.pos_arr
    child = t.kids
    d = cell_distances(words, pos[child], pos[t.parent[child]])
    return NeighborStats(float(d.mean()), int(d.max()))


def _nondecreasing_compositions(total: int, slots: int, minimum: int = 0):
    if slots == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // slots + 1):
        for rest in _nondecreasing_compositions(total - first, slots - 1, first):
            yield (first,) + rest


def heaviest_last_is_optimal(n: int, delta: int) -> bool:
    """Exhaustively confirm that sum_i (delta + i) * sqrt(s_i) over
    nondecreasing compositions s_1 <= ... <= s_delta of n is minimized by
    putting all weight on the last slot."""
    if n > 24 or delta > 4:
        raise ValueError("exhaustive check is limited to n <= 24, delta <= 4")
    target = 2 * delta * math.sqrt(n)
    best = min(
        sum((delta + i) * math.sqrt(s) for i, s in enumerate(comp, start=1))
        for comp in _nondecreasing_compositions(n, delta)
    )
    return best >= target - 1e-9


def format_layout(layout: Layout) -> str:
    """Dump: one 'vertex position row col' line per vertex."""
    rows, cols = curve_coords(layout.kind, layout.k)
    lines = []
    for v, p in enumerate(layout.pos):
        lines.append(f"{v} {p} {rows[p]} {cols[p]}")
    return "\n".join(lines) + "\n"
