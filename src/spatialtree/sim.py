"""Cost-accounting simulator for a grid of constant-memory processors.

A :class:`SimState` tracks, for one logical run, the energy (sum of Manhattan
distances of all messages), the depth (longest chain of dependent messages),
and the message count.  Local computation is free; each message adds one
level to the receiver's dependency clock.  No routing, congestion, or timing
is modeled: the simulator prices exactly distance and dependency chains.

Messages are charged one at a time (``send``), one synchronous round at a
time (``send_round``, or several rounds in order with ``send_rounds``), as a
batch departing at given clocks (``send_at``), or as an ordered batch
(``send_ordered``).  In a round every message departs at its source's clock
from the start of the round, so a position that both sends and receives in
the same round sends its old clock; each receiver's clock rises to the
largest depth it receives.  An ordered batch is charged exactly as the same
messages sent one ``send`` at a time in array order, so a message can depart
after an earlier message of the same batch raised its source's clock, and a
position may receive any number of times.  ``send_wave`` is the checked case
of an ordered batch in which no position receives twice.  Rounds and batches
are checked whole before any of them is charged, and when tracing is on they
append one event per message in array order.

The clocks are one int64 array.  A round is a gather, an ``np.maximum.at``
scatter and an array charge.  A wave is charged by max-plus pointer
doubling: each message's only possible predecessor is the one earlier
message into its source, so ceil(log2 chain) array passes give every depth.
An ordered batch, whose receivers may repeat, keeps its one-message-at-a-time
loop over the clock's buffer.

A traced run keeps its events in one flat ``array('q')``, four 64-bit ints
(src, dst, cost, depth) per message, so an event takes 32 bytes.
``SimState.events`` is a read-only sequence view of it (:class:`TraceLog`)
that yields :class:`TraceEvent` tuples of Python ints, and ``dump_trace``
writes the JSON-lines file straight from the flat array.

The module also provides the grid-wide communication primitives: range
broadcast and reduce over a virtual complete binary tree, the all-reduce
barrier, an up/down-sweep prefix sum, direct permutation routing, and
compaction of flagged records.  The barrier, the prefix sum and
``broadcast_ranges`` charge their range trees one level per round, deepest
level first on the way up and top level first on the way down, so their
trace lists events level by level.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .curves import CurveKind, cell_count, curve_coords

DEFAULT_MEMORY_BUDGET = 16
# messages charged per step of an ordered batch; code that queues messages
# for send_ordered charges them whenever this many wait, since a batch cut
# anywhere charges the same and a short queue keeps its buffers small
ORDERED_CHUNK = 4096
_DUMP_CHUNK = 8192  # trace events formatted per write of dump_trace
# what json.dumps gives for a dict of these four Python ints
_TRACE_LINE = '{"src": %d, "dst": %d, "cost": %d, "depth": %d}\n'


class TraceEvent(NamedTuple):
    src: int
    dst: int
    cost: int
    depth: int


class TraceLog(Sequence):
    """Read-only view of a run's trace events, held four ints per event in
    one flat ``array('q')``; it sees events charged after it was made."""

    __slots__ = ("_flat",)

    def __init__(self, flat: array):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __iter__(self):
        it = iter(self._flat)
        return map(TraceEvent, it, it, it, it)

    def __getitem__(self, i: int) -> TraceEvent:
        count = len(self)
        i = operator.index(i)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("trace event index out of range")
        return TraceEvent(*self._flat[4 * i:4 * i + 4])

    def __eq__(self, other):
        if isinstance(other, TraceLog):
            return self._flat == other._flat
        if isinstance(other, Sequence):
            return list(self) == other
        return NotImplemented


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

    ``clock`` is one int64 array of each position's dependency clock.
    Rounds and waves update it with array passes, and ordered batches and
    scalar sends index it one message at a time; ``energy``, ``depth``,
    ``messages`` and the trace hold Python ints either way.
    """

    __slots__ = (
        "placement",
        "clock",
        "energy",
        "messages",
        "depth",
        "rounds",
        "_trace",
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
        self.clock = np.zeros(n, dtype=np.int64)
        self.energy = 0
        self.messages = 0
        self.depth = 0
        self.rounds = 0
        self._trace = array("q") if trace else None
        self.audit = audit_memory
        self.memory_budget = memory_budget
        self.max_words = 0
        self.violations: list[tuple[int, int]] = []
        # rounds index the cached arrays; scalar sends index plain lists
        self._row_arr, self._col_arr = curve_coords(placement.kind, placement.k)
        self._rows = self._row_arr[:n].tolist()
        self._cols = self._col_arr[:n].tolist()

    @property
    def events(self) -> TraceLog | None:
        """The trace events in charge order, or None when tracing is off."""
        return None if self._trace is None else TraceLog(self._trace)

    def send(self, src: int, dst: int) -> None:
        """Record one message departing at the source's current clock.  Cost
        is the Manhattan distance between positions."""
        n = self.placement.n
        if src < 0 or src >= n or dst < 0 or dst >= n:
            raise ValueError(f"position out of range: {src} -> {dst} with n={n}")
        rows = self._rows
        cols = self._cols
        cost = abs(rows[src] - rows[dst]) + abs(cols[src] - cols[dst])
        clock = self.clock
        d = int(clock[src]) + 1
        self.energy += cost
        self.messages += 1
        if d > clock[dst]:
            clock[dst] = d
        if d > self.depth:
            self.depth = d
        if self._trace is not None:
            self._trace.extend((src, dst, cost, d))

    def send_at(self, src, dst, ready) -> None:
        """Charge message i from src[i] to dst[i] departing at clock
        ready[i], whatever its source's clock; it arrives at depth
        ready[i] + 1.  The whole batch is checked before anything is charged."""
        src, dst = self._positions(src, dst)
        ready = np.asarray(ready)
        if ready.shape != src.shape or (len(src) and ready.dtype.kind not in "iu"):
            raise ValueError("send_at needs one integer ready clock per message")
        self._deliver([(src, dst, ready.astype(np.int64))])

    def _positions(self, src, dst):
        """Both arrays of a batch, checked: 1-D, equal length, integer
        positions on the placement.  Raises ValueError otherwise."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("a batch needs two 1-D position arrays of equal length")
        if len(src) == 0:
            return src, dst
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise ValueError("positions must be integers")
        n = self.placement.n
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"position out of range: {src[i]} -> {dst[i]} with n={n}")
        return src, dst

    def _charge(self, src, dst, depth) -> None:
        """Add energy, messages, depth and trace events of a charged batch."""
        rows = self._row_arr
        cols = self._col_arr
        cost = np.abs(rows[src] - rows[dst]) + np.abs(cols[src] - cols[dst])
        self.energy += int(cost.sum())
        self.messages += len(src)
        top = int(depth.max())
        if top > self.depth:
            self.depth = top
        if self._trace is not None:
            block = np.empty((len(src), 4), dtype=np.int64)
            block[:, 0] = src
            block[:, 1] = dst
            block[:, 2] = cost
            block[:, 3] = depth
            # array.frombytes takes only a 1-D byte buffer
            self._trace.frombytes(memoryview(block).cast("B"))

    def send_round(self, src, dst) -> None:
        """Charge one synchronous round: message i goes from src[i] to dst[i].

        Every message departs at its source's start-of-round clock; each
        receiver's clock rises to the largest depth it receives.  The whole
        round is checked before anything is charged.
        """
        self.send_rounds(((src, dst),))

    def send_rounds(self, rounds) -> None:
        """Charge a sequence of (src, dst) rounds in order, exactly as the
        same calls of :meth:`send_round` one after another.  Every round is
        checked before any is charged."""
        self._deliver([(*self._positions(src, dst), None) for src, dst in rounds])

    def _deliver(self, rounds) -> None:
        """Charge checked (src, dst, ready) rounds in order: message i of a
        round departs at ready[i], or at its source's start-of-round clock
        when ready is None."""
        clock = self.clock
        for src, dst, ready in rounds:
            if len(src):
                depth = (clock[src] if ready is None else ready) + 1
                np.maximum.at(clock, dst, depth)
                self._charge(src, dst, depth)

    def send_ordered(self, src, dst) -> None:
        """Charge message i from src[i] to dst[i] for i in order, exactly as
        ``send(src[i], dst[i])`` one at a time.  A position may receive any
        number of times and send after it received; the whole batch is
        checked before anything is charged.

        The clock loop runs one chunk at a time over the clock's buffer, so
        it reads and writes Python ints.  Depths go straight into a C array,
        so a depth that raises no clock is freed at once instead of living to
        the chunk's end as a Python int.
        """
        src, dst = self._positions(src, dst)
        clock = memoryview(self.clock)
        for lo in range(0, len(src), ORDERED_CHUNK):
            s = src[lo:lo + ORDERED_CHUNK]
            d = dst[lo:lo + ORDERED_CHUNK]
            depths = array("q")
            keep = depths.append
            for a, b in zip(s.tolist(), d.tolist()):
                x = clock[a] + 1
                if x > clock[b]:
                    clock[b] = x
                keep(x)
            self._charge(s, d, np.frombuffer(depths, dtype=np.int64))

    def send_wave(self, src, dst) -> None:
        """:meth:`send_ordered` for a batch in which no position receives
        twice; a repeated receiver raises ValueError and charges nothing.

        Message i can wait only for the one earlier message into src[i],
        its link.  Following the links back from i, message i departs at
        the largest over the chain of each message's start clock at its
        source plus the hops from that message to i.  Pointer doubling over
        the links finds every such maximum in ceil(log2 chain) array passes.
        """
        src, dst = self._positions(src, dst)
        count = len(src)
        if count == 0:
            return
        index = np.arange(count)
        into = np.full(self.placement.n, count, dtype=np.int64)
        into[dst] = index
        twice = into[dst] != index
        if twice.any():
            raise ValueError(f"position {dst[twice.argmax()]} receives twice in one wave")
        link = into[src]  # the message into src[i], if it comes before i
        link[link >= index] = -1
        # ready[i] covers the first `hops` messages of i's chain, and link[i]
        # is the message `hops` steps back, or -1 past the chain's start
        ready = self.clock[src]
        hops = 1
        live = np.flatnonzero(link >= 0)
        while len(live):
            ahead = link[live]
            ready[live] = np.maximum(ready[live], ready[ahead] + hops)
            link[live] = link[ahead]
            live = live[link[live] >= 0]
            hops *= 2
        depth = ready + 1
        self.clock[dst] = np.maximum(self.clock[dst], depth)
        self._charge(src, dst, depth)

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

    def note_words_many(self, positions, words: int) -> None:
        """Audit hook: each of ``positions`` (a sequence or an array), in
        order, holds this many live words; one :meth:`note_words` each."""
        if not self.audit or len(positions) == 0:
            return
        if words > self.max_words:
            self.max_words = words
        if words > self.memory_budget:
            self.violations.extend([(pos, words) for pos in np.asarray(positions).tolist()])

    def report(self) -> CostReport:
        return CostReport(self.energy, self.depth, self.messages, self.rounds)

    def dump_trace(self, path) -> None:
        """Write one JSON line per event, in charge order, with the keys
        src, dst, cost and depth."""
        if self._trace is None:
            raise ValueError("tracing was not enabled for this run")
        rows = np.frombuffer(self._trace, np.int64).reshape(-1, 4)
        line = _TRACE_LINE.__mod__
        with open(path, "w") as fh:
            for lo in range(0, len(rows), _DUMP_CHUNK):
                cols = rows[lo:lo + _DUMP_CHUNK].T.tolist()
                fh.write("".join(map(line, zip(*cols))))


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


def broadcast_ranges(sim: SimState, los, his) -> None:
    """:func:`broadcast_range` over each of the disjoint ranges
    [los[i], his[i]], charged as one round per level of their range trees.

    A position receives at most once, before any send of its own, so level
    rounds charge the same events and depths as the scalar order.
    """
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    bad = (los > his) | (los < 0) | (his >= sim.placement.n)
    if bad.any():
        i = int(bad.argmax())
        _check_range(sim, int(los[i]), int(his[i]))
    sim.send_rounds([(lo, mid + 1) for lo, mid in _range_levels(los, his)])


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


def _range_levels(los, his):
    """The halving range trees over the disjoint ranges [los[i], his[i]],
    one recursion depth at a time.

    Yields (los, mids) arrays for the internal nodes of each depth, top
    first; node [l, h] splits into [l, mid] and [mid + 1, h].  The holders
    of a depth's right halves are distinct and send nothing at that depth.
    """
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
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
    levels = list(_range_levels([0], [m - 1]))
    sim.send_rounds([(mids + 1, los) for los, mids in reversed(levels)]
                    + [(los, mids + 1) for los, mids in levels])


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
