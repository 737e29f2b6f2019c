"""Cost-accounting simulator for a grid of constant-memory processors.

A :class:`SimState` tracks, for one logical run, the energy (sum of Manhattan
distances of all messages), the depth (longest chain of dependent messages),
and the message count.  Local computation is free; each message adds one
level to the receiver's dependency clock.  No routing, congestion, or timing
is modeled: the simulator prices exactly distance and dependency chains.

Messages are charged one at a time (``send``), one synchronous round at a
time (``send_round``, or several rounds in order with ``send_rounds``), or
as a batch departing at given clocks (``send_at``).  The scalar paths send:
``broadcast_range``, the one-block ``block_broadcast`` and
``block_reduce``, and the walk over list ranking's remnant.  Every
level-synchronous kernel charges rounds: list ranking, the sweeps,
``permute``, ``compact``, ``broadcast_ranges``, the local broadcast and
reduce and treefix.  Only the reference-passing protocol, whose messages
wait on earlier messages of the same protocol, uses ``send_at``.

In a round every message departs at its source's clock from the start of
the round, so a position that both sends and receives in the same round
sends its old clock; each receiver's clock rises to the largest depth it
receives.  The positions of rounds and batches are checked whole before
any of them is charged, and when tracing is on they record one event per
message in array order.

The clocks are one int64 array.  A round or a ``send_at`` batch is one
gather of its departure clocks, turned in place into arrival depths, and
one ``np.maximum.at`` scatter.  It is then priced and summed into the
energy one block of ``_BLOCK`` (8,192) messages at a time, so a wide round
holds its depths and one block's costs, never a cost array of its own
length.  A message's cost is the Manhattan distance between its two cells in the curve's one int32 cell table, which a state
views as one int64 word per cell: a block is priced by one word gather per
endpoint, one subtraction and one ``abs`` over both 32-bit lanes and one
uint32 add of the lanes (:func:`~spatialtree.curves.cell_distances`); a
scalar send reads the same table.  A batch's positions are range-checked
with four min/max reductions and cast to intp once, so every later gather
indexes with them as they are.  A message departs at a clock in
[0, 2^63 - 1), so its arrival depth fits int64: a send, round or batch
whose departure clock reaches 2^63 - 1 raises ``ValueError`` before it is
charged.

A traced run keeps one 16-byte record per message, int32 src and dst and
int64 arrival depth, in fixed chunks of ``_BLOCK`` records: a charged
batch is copied into the current chunk, moving on to the next whenever
one fills, and a scalar send writes one record.  The cost is not stored: reading a chunk prices it with the same
:func:`~spatialtree.curves.cell_distances` gather that charges energy.  A
state built with ``trace=True`` keeps every chunk, and
``SimState.events`` is a read-only sequence view of them
(:class:`TraceLog`) that yields :class:`TraceEvent` tuples of Python
ints.  A state built with ``trace=<binary file>`` keeps one chunk: each
time it fills, its lines are written to the file and the chunk is
reused, and :meth:`SimState.flush_trace` writes the rest, so the trace
takes one chunk of memory whatever the run's length.  Records hold
positions as int32, so a traced placement must have n < 2^31.

Both ways a chunk's events are formatted by one function,
:func:`_trace_lines`: the chunk becomes one uint64 matrix with a line per
row, laid out in 8-byte words.  Each key is a constant word, and each
field's digits fill a word, right-aligned, ahead of the 3-byte text that
follows them; 0 bytes pad every word, and one ``bytes.translate`` drops
them.  A field in [0, 10^5) takes its digit word from one shared table,
built on the first dump; other int64 values get a wider slot whose digits
come from divide-by-ten passes.

The module also provides the grid-wide communication primitives: range
broadcast over a virtual complete binary tree, the all-reduce
barrier, an up/down-sweep prefix sum, direct permutation routing, and
compaction of flagged records.  ``prefix_sum`` folds any op over a
sequence; ``compact`` charges the same sweep as a prefix sum of its flags,
but ranks the flagged records in numpy and returns an int64 destination
array.  The barrier, the prefix sum, ``compact`` and ``broadcast_ranges``
charge their range trees one level per round, deepest level first on the
way up and top level first on the way down, so their trace lists events
level by level.  The barrier and the prefix sum sweep the same range tree
over [0, m) each time, so a ``SimState`` keeps each m's levels as checked
intp (head, right half) arrays with every message's uint32 cost, from the
second sweep of m on; a repeat sweep is one clock gather, one
``np.maximum.at`` and one charge per level, and a first sweep prices its
levels block by block like any round.
"""

from __future__ import annotations

import functools
import io
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .curves import CurveKind, cell_count, cell_distances, curve_coords

DEFAULT_MEMORY_BUDGET = 16
# messages priced per block of a round, and trace records per chunk
_BLOCK = 8192
# one trace record; its cost is priced from the cell table when it is read
_RECORD = np.dtype([("src", np.int32), ("dst", np.int32), ("depth", np.int64)])
# a trace line is what json.dumps gives for a dict of four Python ints: per
# field a key word, then the field's digits and the 3 bytes that follow
# them, ", \"" or "}\n"; 0 bytes pad a key word at its end and a suffix
# word at its front, so the digits can fill bytes 0-4 of the suffix word
_KEY_WORDS = np.frombuffer(
    b"".join(key.ljust(8, b"\0") for key in (b'{"src": ', b'dst": ', b'cost": ', b'depth": ')),
    np.uint64)
_SUFFIX_WORDS = np.frombuffer(
    b"".join((b"\0" * 5 + text).ljust(8, b"\0") for text in (b', "', b', "', b', "', b"}\n")),
    np.uint64)
_TABLE_WIDTH = 5  # fields in [0, 10**5) take their digit word from a table
_CLOCK_LIMIT = 2 ** 63 - 1  # departure clocks stay below it, so +1 fits int64


class TraceEvent(NamedTuple):
    src: int
    dst: int
    cost: int
    depth: int


class TraceLog(Sequence):
    """Read-only view of an in-memory trace's chunks; it sees events
    charged after it was made, and prices each chunk as it is read."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "SimState"):
        self._sim = sim

    def __len__(self) -> int:
        return (len(self._sim._chunks) - 1) * _BLOCK + self._sim._fill

    def __iter__(self):
        for rows in self._sim._trace_rows():
            yield from map(TraceEvent._make, rows.tolist())

    def __getitem__(self, i: int) -> TraceEvent:
        count = len(self)
        i = operator.index(i)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("trace event index out of range")
        chunk = self._sim._chunks[i // _BLOCK]
        j = i % _BLOCK
        return TraceEvent(*self._sim._priced(chunk[j:j + 1])[0].tolist())

    def __eq__(self, other):
        if isinstance(other, TraceLog):
            return len(self) == len(other) and all(
                np.array_equal(a, b)
                for a, b in zip(self._sim._trace_rows(), other._sim._trace_rows()))
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
    Rounds and batches update it with array passes, and scalar sends
    index it one message at a time; ``energy``, ``depth``, ``messages``
    and the trace hold Python ints either way.

    ``trace`` is False (no trace), True (every event kept in memory, read
    through :attr:`events`) or a binary file that the trace streams to;
    a streamed trace needs :meth:`flush_trace` once the run is done.  A
    file opened in text mode raises ValueError.
    """

    __slots__ = (
        "placement",
        "clock",
        "energy",
        "messages",
        "depth",
        "rounds",
        "_chunks",
        "_fill",
        "_sink",
        "audit",
        "memory_budget",
        "max_words",
        "violations",
        "_cells",
        "_words",
        "_sweeps",
    )

    def __init__(self, placement: Placement, trace=False,
                 audit_memory: bool = False, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        n = placement.n
        if trace and n >= 2 ** 31:
            raise ValueError(f"a traced run needs fewer than 2**31 positions, not n={n}")
        if isinstance(trace, io.TextIOBase):
            raise ValueError("a streamed trace needs a file opened in binary mode")
        self.placement = placement
        self.clock = np.zeros(n, dtype=np.int64)
        self.energy = 0
        self.messages = 0
        self.depth = 0
        self.rounds = 0
        # trace records: every chunk, or the one chunk a streamed trace
        # reuses; _fill records of the last chunk are taken
        self._chunks = [np.empty(_BLOCK, _RECORD)] if trace else None
        self._fill = 0
        self._sink = trace if hasattr(trace, "write") else None
        self.audit = audit_memory
        self.memory_budget = memory_budget
        self.max_words = 0
        self.violations: list[tuple[int, int]] = []
        # the curve's (4^k, 2) int32 cell table, which scalar sends read,
        # and its view as one int64 word per cell, which batches gather
        self._cells = curve_coords(placement.kind, placement.k).T
        self._words = self._cells.view(np.int64).reshape(-1)
        # m -> the levels of the range tree over [0, m), see _sweep
        self._sweeps: dict[int, list] = {}

    @property
    def events(self) -> TraceLog | None:
        """The trace events in charge order, or None when tracing is off or
        the trace streams to a file."""
        return None if self._chunks is None or self._sink is not None else TraceLog(self)

    def send(self, src: int, dst: int) -> None:
        """Record one message departing at the source's current clock.  Cost
        is the Manhattan distance between positions, which must be integers
        on the placement: anything else raises ValueError."""
        try:
            if isinstance(src, bool) or isinstance(dst, bool):
                raise TypeError("a bool is not a position")
            src, dst = operator.index(src), operator.index(dst)
        except TypeError:
            raise ValueError(f"positions must be integers, not {src!r} -> {dst!r}") from None
        n = self.placement.n
        if src < 0 or src >= n or dst < 0 or dst >= n:
            raise ValueError(f"position out of range: {src} -> {dst} with n={n}")
        cell = self._cells.item
        cost = abs(cell(src, 0) - cell(dst, 0)) + abs(cell(src, 1) - cell(dst, 1))
        clock = self.clock
        d = int(clock[src]) + 1
        if d > _CLOCK_LIMIT:
            raise ValueError(f"departure clock {d - 1} is not below 2**63 - 1")
        self.energy += cost
        self.messages += 1
        if d > clock[dst]:
            clock[dst] = d
        if d > self.depth:
            self.depth = d
        if self._chunks is not None:
            self._chunks[-1][self._fill] = (src, dst, d)
            self._fill += 1
            if self._fill == _BLOCK:
                self._spill()

    def send_at(self, src, dst, ready) -> None:
        """Charge message i from src[i] to dst[i] departing at clock
        ready[i], whatever its source's clock; it arrives at depth
        ready[i] + 1.  Ready clocks must lie in [0, 2^63 - 1).  The whole
        batch is checked before anything is charged."""
        src, dst = self._positions(src, dst)
        ready = np.asarray(ready)
        if ready.shape != src.shape or (len(src) and ready.dtype.kind not in "iu"):
            raise ValueError("send_at needs one integer ready clock in [0, 2**63 - 1) "
                             "per message")
        if len(src):
            if ready.min() < 0:
                raise ValueError(f"negative ready clock {ready.min()}")
            if ready.max() >= _CLOCK_LIMIT:
                raise ValueError(f"ready clock {ready.max()} is not below 2**63 - 1")
        self._deliver([(src, dst, ready, None)])

    def _positions(self, src, dst):
        """Both arrays of a batch, checked: 1-D, equal length, integer
        positions on the placement, and returned as intp arrays.  Raises
        ValueError otherwise."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("a batch needs two 1-D position arrays of equal length")
        if len(src) == 0:
            return src, dst
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise ValueError("positions must be integers")
        n = self.placement.n
        if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
            bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
            i = int(bad.argmax())
            raise ValueError(f"position out of range: {src[i]} -> {dst[i]} with n={n}")
        # in range, so the cast is exact; it copies nothing for intp input
        return src.astype(np.intp, copy=False), dst.astype(np.intp, copy=False)

    def _charge(self, src, dst, depth, top, cost=None) -> None:
        """Add energy, messages, depth and trace events of a charged batch
        whose largest depth is top, one block of ``_BLOCK`` messages at a
        time, pricing each block unless the batch's costs are given."""
        m = len(src)
        energy = 0
        for lo in range(0, m, _BLOCK):
            hi = lo + _BLOCK
            c = (cell_distances(self._words, src[lo:hi], dst[lo:hi]) if cost is None
                 else cost[lo:hi])
            energy += int(c.sum())
        self.energy += energy
        self.messages += m
        if top > self.depth:
            self.depth = top
        if self._chunks is not None:
            lo = 0
            while lo < m:
                fill = self._fill
                hi = lo + min(_BLOCK - fill, m - lo)
                part = self._chunks[-1][fill:fill + hi - lo]
                part["src"] = src[lo:hi]
                part["dst"] = dst[lo:hi]
                part["depth"] = depth[lo:hi]
                self._fill = fill + hi - lo
                if self._fill == _BLOCK:
                    self._spill()
                lo = hi

    def _spill(self) -> None:
        """Make room for more records: a streamed trace writes the lines of
        its one chunk's records and reuses it, an in-memory trace (whose
        last chunk is full) starts a new chunk."""
        if self._sink is None:
            self._chunks.append(np.empty(_BLOCK, _RECORD))
        else:
            self._sink.write(_trace_lines(self._priced(self._chunks[0][:self._fill])))
        self._fill = 0

    def _priced(self, records) -> np.ndarray:
        """Trace records as an (m, 4) int64 array of (src, dst, cost, depth)
        rows, each cost priced from the cell table."""
        rows = np.empty((len(records), 4), dtype=np.int64)
        rows[:, 0] = records["src"]
        rows[:, 1] = records["dst"]
        rows[:, 2] = cell_distances(self._words, records["src"], records["dst"])
        rows[:, 3] = records["depth"]
        return rows

    def _trace_rows(self):
        """The priced rows of each in-memory chunk that holds events."""
        last = len(self._chunks) - 1
        for i, chunk in enumerate(self._chunks):
            count = _BLOCK if i < last else self._fill
            if count:
                yield self._priced(chunk[:count])

    def send_round(self, src, dst) -> None:
        """Charge one synchronous round: message i goes from src[i] to dst[i].

        Every message departs at its source's start-of-round clock; each
        receiver's clock rises to the largest depth it receives.  The whole
        round is checked before anything is charged.
        """
        self.send_rounds(((src, dst),))

    def send_rounds(self, rounds) -> None:
        """Charge a sequence of (src, dst) rounds in order, exactly as the
        same calls of :meth:`send_round` one after another.  Every round's
        positions are checked before any round is charged; a round whose
        departure clock reaches 2^63 - 1 raises before it is charged, after
        the rounds before it."""
        self._deliver([(*self._positions(src, dst), None, None) for src, dst in rounds])

    def _deliver(self, rounds) -> None:
        """Charge checked (src, dst, ready, cost) rounds in order: message i
        of a round departs at ready[i], or at its source's start-of-round
        clock when ready is None; cost is None or each message's cost."""
        clock = self.clock
        for src, dst, ready, cost in rounds:
            if len(src):
                # a new array either way, so the depths can take its place
                depth = clock.take(src) if ready is None else ready.astype(np.int64)
                top = int(depth.max())
                if top >= _CLOCK_LIMIT:
                    raise ValueError(f"departure clock {top} is not below 2**63 - 1")
                depth += 1
                np.maximum.at(clock, dst, depth)
                self._charge(src, dst, depth, top + 1, cost)

    def send_batch(self, pairs) -> None:
        """One synchronous round of (src, dst) pairs; see :meth:`send_round`."""
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.send_round(pairs[:, 0], pairs[:, 1])

    def note_words_many(self, positions, words: int) -> None:
        """Audit hook: each of ``positions`` (a sequence or an array), in
        order, holds this many live words.  When auditing, ``max_words``
        rises to ``words``, and a count over the budget appends one
        (position, words) violation per position."""
        if not self.audit or len(positions) == 0:
            return
        if words > self.max_words:
            self.max_words = words
        if words > self.memory_budget:
            self.violations.extend([(pos, words) for pos in np.asarray(positions).tolist()])

    def report(self) -> CostReport:
        return CostReport(self.energy, self.depth, self.messages, self.rounds)

    def dump_trace(self, path) -> None:
        """Write one JSON line per event of an in-memory trace, in charge
        order, with the keys src, dst, cost and depth."""
        if self._chunks is None:
            raise ValueError("tracing was not enabled for this run")
        if self._sink is not None:
            raise ValueError("this run's trace streams to a file; use flush_trace")
        with open(path, "wb") as fh:
            for rows in self._trace_rows():
                fh.write(_trace_lines(rows))

    def flush_trace(self) -> None:
        """Write the events a streamed trace still holds to its file; the
        run may go on charging after it."""
        if self._sink is None:
            raise ValueError("this run's trace does not stream to a file")
        if self._fill:
            self._spill()


def _trace_lines(block) -> bytes:
    """The trace lines of an (m, 4) int64 block of (src, dst, cost, depth)
    events, byte for byte what json.dumps writes for each event's dict.

    The lines are built as one (m, words) uint64 matrix: per field a key
    word, then a slot with the field's digits right-aligned ahead of its
    3-byte suffix.  A field whose values all lie in [0, 10**5) fills a
    one-word slot with one table lookup; any other field gets a slot of
    ceil((width + 3) / 8) words for its widest text.  0 bytes pad every
    word, and one ``translate`` drops them.
    """
    # per field: the width of its widest text, or 0 when the table holds it
    widths = []
    for col in block.T:
        lo, hi = int(col.min(initial=0)), int(col.max(initial=0))
        widths.append(0 if lo >= 0 and hi < 10 ** _TABLE_WIDTH
                      else max(len(str(lo)), len(str(hi))))
    slots = [(w + 10) // 8 if w else 1 for w in widths]  # words after each key
    text = np.zeros((len(block), 4 + sum(slots)), np.uint64)
    end = 0
    for col, width, slot, key, suffix in zip(block.T, widths, slots, _KEY_WORDS, _SUFFIX_WORDS):
        text[:, end] = key
        end += 1 + slot
        if width:
            text[:, end - 1] = suffix
            text.view(np.uint8)[:, 8 * end - 3 - width:8 * end - 3] = _digits(col, width)
        else:
            np.bitwise_or(_digit_words().take(col), suffix, out=text[:, end - 1])
    return text.tobytes().translate(None, b"\0")


def _digits(values, width: int):
    """The decimal text of int64 values as a (len, width) uint8 matrix:
    right-aligned, "-" before a negative value's digits, 0 bytes as
    padding.  ``width`` must hold the longest text."""
    text = np.zeros((len(values), width), np.uint8)
    neg = values < 0
    q = values.astype(np.uint64)  # magnitudes; uint64 holds even 2**63
    np.negative(q, out=q, where=neg)
    text[:, -1] = q % 10 + ord("0")
    for j in range(width - 2, -1, -1):
        q //= 10
        text[:, j] = np.where(q > 0, q % 10 + ord("0"), 0)
    rows = np.flatnonzero(neg)
    text[rows, width - 1 - np.count_nonzero(text[rows], axis=1)] = ord("-")
    return text


@functools.cache
def _digit_words():
    """The digit word of each of 0 .. 10**_TABLE_WIDTH - 1: its
    :func:`_digits` text of width 5 in bytes 0-4, 0 bytes after; viewed
    as (10**5, 8) uint8, columns 0-4 are those texts.  0.8 MB, read-only,
    built on the first dump of a field that fits it."""
    text = np.zeros((10 ** _TABLE_WIDTH, 8), np.uint8)
    text[:, :_TABLE_WIDTH] = _digits(np.arange(10 ** _TABLE_WIDTH, dtype=np.int64), _TABLE_WIDTH)
    words = text.view(np.uint64).reshape(-1)
    words.flags.writeable = False
    return words


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

    ``los`` and ``his`` are 1-D integer arrays of equal length, and each
    range lies on the placement and ends before the next one starts;
    anything else raises ValueError before a message is charged.  A
    position receives at most once, before any send of its own, so level
    rounds charge the same events and depths as the scalar order.
    """
    los, his = np.asarray(los), np.asarray(his)
    if los.ndim != 1 or los.shape != his.shape:
        raise ValueError("broadcast_ranges needs two 1-D bound arrays of equal length")
    if not len(los):
        return
    if los.dtype.kind not in "iu" or his.dtype.kind not in "iu":
        raise ValueError("range bounds must be integers")
    bad = (los > his) | (los < 0) | (his >= sim.placement.n)
    if bad.any():
        i = int(bad.argmax())
        _check_range(sim, int(los[i]), int(his[i]))
    # sorted and disjoint: each end lies before the next start
    bad = his[:-1] >= los[1:]
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"range [{los[i + 1]}, {his[i + 1]}] does not start past "
                         f"[{los[i]}, {his[i]}]")
    sim.send_rounds([(lo, mid + 1) for lo, mid in _range_levels(los, his)])


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

    Each level's (head, right half) positions and their costs are cached
    per ``SimState`` and m from the second sweep of m on, so a state that
    sweeps m once holds nothing for it and prices its levels as it charges
    them; they lie in [0, m) by construction, so a repeat sweep neither
    builds nor checks them.
    """
    levels = sim._sweeps.get(m)
    if levels is None:
        keep = m in sim._sweeps  # None marks an m swept once
        levels = []
        for los, mids in _range_levels([0], [m - 1]):
            heads, halves = los.astype(np.intp), (mids + 1).astype(np.intp)
            levels.append((heads, halves,
                           cell_distances(sim._words, heads, halves) if keep else None))
        sim._sweeps[m] = levels if keep else None
    sim._deliver([(halves, heads, None, cost) for heads, halves, cost in reversed(levels)]
                 + [(heads, halves, None, cost) for heads, halves, cost in levels])


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


def permute(sim: SimState, targets: Sequence[int]) -> None:
    """Route each source's record directly to its target, all in one round.

    ``targets`` is a sequence or array whose entry i is the target of
    position i; its entries must be distinct occupied positions.  Targets
    that are not integers raise ValueError before anything is charged.
    """
    dst = np.asarray(targets)
    m = len(dst)
    if not m:
        return
    if dst.dtype.kind not in "iu":
        raise ValueError("permutation targets must be integers")
    n = sim.placement.n
    # checked in the given dtype, so a uint64 target past int64 is named as given
    if m > n or dst.min() < 0 or dst.max() >= n:
        bad = (dst < 0) | (dst >= n)
        bad[n:] = True
        i = int(bad.argmax())
        raise ValueError(f"permutation entry {i} -> {dst[i]} out of range")
    dst = dst.astype(np.intp, copy=False)
    hit = np.zeros(n, dtype=bool)
    hit[dst] = True
    if np.count_nonzero(hit) < m:
        hits = np.bincount(dst, minlength=n)
        raise ValueError(f"duplicate permutation target {int(hits.argmax())}")
    sim.send_round(np.arange(m), dst)


def compact(sim: SimState, flags) -> tuple[np.ndarray, int]:
    """Move flagged records to prefix positions, preserving order.

    ``flags`` is a 1-D sequence or array of bools, one per position, or
    ValueError is raised before anything is charged.  Returns
    (dest, count): dest is an int64 array whose entry i is the new position
    of the record at i, or -1 if unflagged, and count is the number of
    flagged records.  Costs what :func:`prefix_sum` over the flags charges,
    one sweep of [0, m), then the routing round.
    """
    flagged = np.asarray(flags, dtype=bool)
    if flagged.ndim != 1:
        raise ValueError("compact needs a 1-D sequence of flags")
    m = len(flagged)
    if m == 0:
        return np.zeros(0, dtype=np.int64), 0
    if m > sim.placement.n:
        raise ValueError("more values than occupied positions")
    _sweep(sim, m)
    src = np.flatnonzero(flagged)
    # a flagged record's prefix count, less one, is its rank among them
    dst = np.arange(len(src), dtype=np.int64)
    sim.send_round(src, dst)
    dest = np.full(m, -1, dtype=np.int64)
    dest[src] = dst
    return dest, len(src)
