"""Cost-accounting simulator for a grid of constant-memory processors.

A :class:`SimState` tracks, for one logical run, the energy (sum of Manhattan
distances of all messages), the depth (longest chain of dependent messages),
and the message count.  Local computation is free; each message adds one
level to the receiver's dependency clock.  No routing, congestion, or timing
is modeled: the simulator prices exactly distance and dependency chains.

Messages are charged one at a time (``send``, ``send_at``) or one
synchronous round at a time (``send_round``).  In a round every message
departs at its source's clock from the start of the round, so a position
that both sends and receives in the same round sends its old clock; each
receiver's clock rises to the largest depth it receives.  A round is checked
whole before any of it is charged, and when tracing is on it appends one
event per message in array order.

The module also provides the grid-wide communication primitives: range
broadcast and reduce over a virtual complete binary tree, the all-reduce
barrier, an up/down-sweep prefix sum, direct permutation routing, and
compaction of flagged records.  The barrier and the prefix sum charge their
range tree one level per round, deepest level first on the way up and top
level first on the way down, so their trace lists events level by level.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .curves import CurveKind, cell_count, curve_coords

DEFAULT_MEMORY_BUDGET = 16
_SLICE = 4096  # clock entries written back per step of a wide round


class TraceEvent(NamedTuple):
    src: int
    dst: int
    cost: int
    depth: int


@dataclass(frozen=True)
class CostReport:
    energy: int
    depth: int
    messages: int
    rounds: int


@dataclass(frozen=True)
class Placement:
    """First n positions of an order-k curve are occupied; the rest is padding."""

    kind: CurveKind
    k: int
    n: int

    @staticmethod
    def for_size(kind: CurveKind, n: int) -> "Placement":
        if n < 1:
            raise ValueError("placement needs at least one position")
        k = 0
        while cell_count(k) < n:
            k += 1
        return Placement(CurveKind(kind), k, n)


class SimState:
    """Mutable cost accumulator for one run; confine to a single execution.

    ``clock`` stays a Python list: the scalar send path indexes it millions
    of times per run, which numpy scalar indexing would slow down.
    """

    __slots__ = (
        "placement",
        "clock",
        "energy",
        "messages",
        "depth",
        "rounds",
        "events",
        "audit",
        "memory_budget",
        "max_words",
        "violations",
        "_rows",
        "_cols",
        "_row_arr",
        "_col_arr",
    )

    def __init__(self, placement: Placement, trace: bool = False,
                 audit_memory: bool = False, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.placement = placement
        n = placement.n
        self.clock = [0] * n
        self.energy = 0
        self.messages = 0
        self.depth = 0
        self.rounds = 0
        self.events: list[TraceEvent] | None = [] if trace else None
        self.audit = audit_memory
        self.memory_budget = memory_budget
        self.max_words = 0
        self.violations: list[tuple[int, int]] = []
        # rounds index the cached arrays; scalar sends index plain lists
        self._row_arr, self._col_arr = curve_coords(placement.kind, placement.k)
        self._rows = self._row_arr[:n].tolist()
        self._cols = self._col_arr[:n].tolist()

    def send(self, src: int, dst: int) -> None:
        """Record one message departing at the source's current clock."""
        try:
            ready = self.clock[src]
        except IndexError:
            ready = 0  # send_at rejects the position
        self.send_at(src, dst, ready)

    def send_at(self, src: int, dst: int, ready: int) -> None:
        """Record one message departing at clock ``ready``; it arrives at
        depth ready + 1.  Cost is the Manhattan distance between positions."""
        n = self.placement.n
        if src < 0 or src >= n or dst < 0 or dst >= n:
            raise ValueError(f"position out of range: {src} -> {dst} with n={n}")
        rows = self._rows
        cols = self._cols
        cost = abs(rows[src] - rows[dst]) + abs(cols[src] - cols[dst])
        d = ready + 1
        self.energy += cost
        self.messages += 1
        if d > self.clock[dst]:
            self.clock[dst] = d
        if d > self.depth:
            self.depth = d
        if self.events is not None:
            self.events.append(TraceEvent(src, dst, cost, d))

    def send_round(self, src, dst) -> None:
        """Charge one synchronous round: message i goes from src[i] to dst[i].

        Every message departs at its source's start-of-round clock; each
        receiver's clock rises to the largest depth it receives.  The whole
        round is checked before anything is charged.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("a round needs two 1-D position arrays of equal length")
        count = len(src)
        if count == 0:
            return
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise ValueError("positions must be integers")
        n = self.placement.n
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"position out of range: {src[i]} -> {dst[i]} with n={n}")
        clock = self.clock
        if 4 * count > n:
            # wide round: one pass over the whole clock beats per-message
            # indexing; writing it back in slices keeps the old and new int
            # objects from coexisting for the whole grid
            now = np.array(clock, dtype=np.int64)
            depth = now[src] + 1
            np.maximum.at(now, dst, depth)
            for lo in range(0, n, _SLICE):
                clock[lo:lo + _SLICE] = now[lo:lo + _SLICE].tolist()
        else:
            depth = np.fromiter(map(clock.__getitem__, src.tolist()), np.int64, count) + 1
            for j, d in zip(dst.tolist(), depth.tolist()):
                if d > clock[j]:
                    clock[j] = d
        rows = self._row_arr
        cols = self._col_arr
        cost = np.abs(rows[src] - rows[dst]) + np.abs(cols[src] - cols[dst])
        self.energy += int(cost.sum())
        self.messages += count
        top = int(depth.max())
        if top > self.depth:
            self.depth = top
        if self.events is not None:
            self.events.extend(map(TraceEvent, src.tolist(), dst.tolist(),
                                   cost.tolist(), depth.tolist()))

    def send_batch(self, pairs) -> None:
        """One synchronous round of (src, dst) pairs; see :meth:`send_round`."""
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.send_round(pairs[:, 0], pairs[:, 1])

    def note_words(self, pos: int, words: int) -> None:
        """Audit hook: position currently holds this many live words."""
        if not self.audit:
            return
        if words > self.max_words:
            self.max_words = words
        if words > self.memory_budget:
            self.violations.append((pos, words))

    def report(self) -> CostReport:
        return CostReport(self.energy, self.depth, self.messages, self.rounds)

    def dump_trace(self, path) -> None:
        if self.events is None:
            raise ValueError("tracing was not enabled for this run")
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps({"src": ev.src, "dst": ev.dst,
                                     "cost": ev.cost, "depth": ev.depth}))
                fh.write("\n")


def _check_range(sim: SimState, a: int, b: int) -> None:
    if a > b or a < 0 or b >= sim.placement.n:
        raise ValueError(f"invalid range [{a}, {b}] for n={sim.placement.n}")


def broadcast_range(sim: SimState, a: int, b: int) -> None:
    """Deliver one word from position a to every position in [a, b].

    The holder of a subrange sends to the holder of its right half; halving
    gives <= ceil(log2(len)) dependent levels and b - a messages.
    """
    _check_range(sim, a, b)
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            continue
        mid = (lo + hi) // 2
        sim.send(lo, mid + 1)
        stack.append((lo, mid))
        stack.append((mid + 1, hi))


def reduce_range(sim: SimState, a: int, b: int, values: Sequence, op: Callable):
    """Fold values[a..b] with op; the result lands at position a."""
    _check_range(sim, a, b)

    def go(lo, hi):
        if lo == hi:
            return values[lo]
        mid = (lo + hi) // 2
        left = go(lo, mid)
        right = go(mid + 1, hi)
        sim.send(mid + 1, lo)
        return op(left, right)

    return go(a, b)


def _range_levels(lo: int, hi: int):
    """The halving range tree over [lo, hi], one recursion depth at a time.

    Yields (los, mids) arrays for the internal nodes of each depth, top
    first; node [l, h] splits into [l, mid] and [mid + 1, h].
    """
    los = np.array([lo], dtype=np.int64)
    his = np.array([hi], dtype=np.int64)
    while True:
        inner = los < his
        los, his = los[inner], his[inner]
        if len(los) == 0:
            return
        mids = (los + his) // 2
        yield los, mids
        los = np.concatenate((los, mids + 1))
        his = np.concatenate((mids, his))


def _sweep(sim: SimState, m: int) -> None:
    """Up-sweep then down-sweep over the range tree of positions [0, m).

    Up, each right half reports to its range's head, deepest level first;
    down, each head passes on to its right half, top level first.  The only
    dependent sends run between ancestor and descendant ranges, so level
    rounds charge the same depths as the recursive order.
    """
    levels = list(_range_levels(0, m - 1))
    for los, mids in reversed(levels):
        sim.send_round(mids + 1, los)
    for los, mids in levels:
        sim.send_round(los, mids + 1)


def all_reduce_barrier(sim: SimState) -> None:
    """Reduce then broadcast over the whole grid; afterwards every clock is
    at least the pre-barrier maximum."""
    n = sim.placement.n
    if n > 1:
        _sweep(sim, n)


def prefix_sum(sim: SimState, values: Sequence, op: Callable = operator.add,
               identity=0) -> list:
    """Inclusive scan: position i ends up holding fold(values[0..i]).

    Up-sweep computes subrange totals bottom-up; down-sweep pushes carries
    top-down over the same binary range tree.
    """
    m = len(values)
    if m == 0:
        return []
    if m > sim.placement.n:
        raise ValueError("more values than occupied positions")
    _sweep(sim, m)
    return list(accumulate(values, op, initial=identity))[1:]


def permute(sim: SimState, targets: dict[int, int]) -> None:
    """Route each source's record directly to its target, all in one round.

    ``targets`` must be a partial injection on occupied positions.
    """
    src = np.fromiter(targets.keys(), np.int64, len(targets))
    dst = np.fromiter(targets.values(), np.int64, len(targets))
    n = sim.placement.n
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"permutation entry {src[i]} -> {dst[i]} out of range")
    hits = np.bincount(dst, minlength=n)
    if hits.max(initial=0) > 1:
        raise ValueError(f"duplicate permutation target {int(hits.argmax())}")
    order = np.argsort(src)
    sim.send_round(src[order], dst[order])


def compact(sim: SimState, flags: Sequence[bool]) -> tuple[list, int]:
    """Move flagged records to prefix positions, preserving order.

    Returns (destinations, count) where destinations[i] is the new position
    of the record at i, or None if unflagged.  Costs one prefix sum plus the
    routing permutation.
    """
    m = len(flags)
    if m == 0:
        return [], 0
    flagged = np.asarray(flags, dtype=bool)
    counts = np.array(prefix_sum(sim, flagged.astype(np.int64).tolist()))
    src = np.flatnonzero(flagged)
    dst = counts[src] - 1  # distinct and below m <= n
    sim.send_round(src, dst)
    dest: list[int | None] = [None] * m
    for i, d in zip(src.tolist(), dst.tolist()):
        dest[i] = d
    return dest, int(counts[-1])
