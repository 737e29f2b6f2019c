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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import CurveKind, curve_coords
from .listrank import list_rank, subtree_sizes_via_tour, tour_links
from .rng import Lcg
from .sim import CostReport, Placement, SimState, compact, permute
from .trees import RootedTree, bfs_order, dfs_preorder, light_first_children, subtree_sizes


@dataclass(frozen=True)
class Layout:
    """Bijection between vertices and the first n positions of a curve."""

    kind: CurveKind
    k: int
    pos: list[int]
    vtx: list[int]

    @property
    def n(self) -> int:
        return len(self.pos)

    @staticmethod
    def from_positions(kind: CurveKind, pos: list[int]) -> "Layout":
        placement = Placement.for_size(kind, len(pos))
        vtx = [-1] * len(pos)
        for v, p in enumerate(pos):
            vtx[p] = v
        if any(v < 0 for v in vtx):
            raise ValueError("positions are not a bijection onto [0, n)")
        return Layout(CurveKind(kind), placement.k, pos, vtx)

    def placement(self) -> Placement:
        return Placement(self.kind, self.k, self.n)


def light_first_positions(t: RootedTree, sizes=None) -> list[int]:
    """Direct construction: lay out each subtree contiguously, lighter first."""
    if sizes is None:
        sizes = subtree_sizes(t)
    order = light_first_children(t, sizes)
    pos = [0] * t.n
    pos[t.root] = 0
    stack = [t.root]
    while stack:
        v = stack.pop()
        cursor = pos[v] + 1
        for c in order[v]:
            pos[c] = cursor
            cursor += sizes[c]
            stack.append(c)
    return pos


def light_first_layout(t: RootedTree, kind: CurveKind = CurveKind.HILBERT,
                       sizes=None) -> Layout:
    return Layout.from_positions(kind, light_first_positions(t, sizes))


def build_baseline(t: RootedTree, order_kind: str, kind: CurveKind) -> Layout:
    """BFS level order or DFS preorder with original child order."""
    if order_kind == "bfs":
        seq = bfs_order(t)
    elif order_kind == "dfs":
        seq = dfs_preorder(t)
    else:
        raise ValueError(f"unknown baseline {order_kind!r}")
    pos = [0] * t.n
    for i, v in enumerate(seq):
        pos[v] = i
    return Layout.from_positions(kind, pos)


def build_light_first(t: RootedTree, kind: CurveKind, seed: int = 0,
                      audit_memory: bool = False,
                      trace: bool = False) -> tuple[Layout, CostReport, SimState]:
    """Simulated four-step pipeline on a working grid of 2n-1 tour slots.

    1. subtree sizes via a ranked Euler tour; 2. second tour visiting
    children in increasing size order; 3. tour slots permuted to their rank
    positions, first occurrences compacted to the front; 4. the compaction's
    routing is the permutation onto the curve.  The returned layout indexes
    the minimal grid for n vertices; the working-grid sim is returned for
    trace and audit inspection.
    """
    n = t.n
    kind = CurveKind(kind)
    if n == 1:
        sim = SimState(Placement.for_size(kind, 1), trace=trace,
                       audit_memory=audit_memory)
        return Layout(kind, 0, [0], [0]), CostReport(0, 0, 0, 0), sim
    rng = Lcg(seed)
    placement = Placement.for_size(kind, 2 * n - 1)
    sim = SimState(placement, trace=trace, audit_memory=audit_memory)
    sizes = subtree_sizes_via_tour(sim, t, rng.next_u64())
    if sim.audit:
        for v in range(n):
            sim.note_words(v, 6)  # id, first/last rank, size, succ link, coin
    sorted_children = light_first_children(t, sizes)
    succ, head, _ = tour_links(t, sorted_children)
    rank = list_rank(sim, succ, head, rng.next_u64())
    permute(sim, dict(enumerate(rank)))
    flags = np.zeros(len(rank), dtype=bool)
    flags[rank[:n]] = True  # slots below n are first visits
    dest, count = compact(sim, flags)
    if count != n:
        raise RuntimeError("first-occurrence compaction lost vertices")
    pos = [dest[r] for r in rank[:n]]
    layout = Layout.from_positions(kind, pos)
    return layout, sim.report(), sim


def verify_light_first(t: RootedTree, sizes, layout: Layout) -> bool:
    """True iff every vertex's children, taken in position order, are
    size-ascending and sit at 1 + pos(v) + sum of lighter siblings' sizes.

    Ties are free: any arrangement of equal-size siblings qualifies.
    """
    pos = layout.pos
    for v, cs in enumerate(t.children):
        base = pos[v] + 1
        prev_size = 0
        for c in sorted(cs, key=lambda c: pos[c]):
            if pos[c] != base or sizes[c] < prev_size:
                return False
            base += sizes[c]
            prev_size = sizes[c]
    return True


class NeighborStats(NamedTuple):
    mean: float
    max: int


def neighbor_distance_stats(t: RootedTree, layout: Layout) -> NeighborStats:
    """Mean and max curve distance between parent and child over all edges."""
    rows, cols = curve_coords(layout.kind, layout.k)
    pos = np.asarray(layout.pos)
    parents = np.asarray(t.parent)
    child = np.arange(t.n)[parents >= 0]
    par = parents[parents >= 0]
    if len(child) == 0:
        return NeighborStats(0.0, 0)
    d = (np.abs(rows[pos[child]] - rows[pos[par]])
         + np.abs(cols[pos[child]] - cols[pos[par]]))
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
