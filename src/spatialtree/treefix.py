"""Rake-compress tree contraction with O(1)-per-vertex bookkeeping.

Supervertices (connected sets of merged vertices, identified by the member
closest to the root) are contracted by two operations: compress merges a
non-branching chain link into its parent, rake absorbs leaf children via a
local reduce over the child block.  Every supervertex keeps the partial sum
of its merged values at its representative.  The distributed contraction
log works as a linked stack: each contraction stores the representative's
previous log entry on a vertex deactivated by that contraction (the
compressed child, or the first raked leaf), so per-vertex state stays
constant-size and uncontraction can replay everything backwards.

A supervertex knows its children only as a live-child count and a running
sum of live child ids, so when the count is 1 the sum is the only child.
Its full child set, which a rake or an undo needs, is the live part of the
child block of its bottom vertex, read from ``VirtualTree.blocks``.  All
per-vertex state lives in numpy arrays, and each round's compresses, rakes
and undos run as a few array passes over that round's supervertices.

Messages are charged level-synchronously.  A broadcast or reduce over child
blocks takes one round per relay level of the virtual tree, over all the
step's blocks at once (``VirtualTree.relay_rounds``); parent coins,
compresses and compress undos take one round each.  So a compact round
costs O(1) rounds plus the relay levels, O(log degree), whatever the vertex
ids.

Uncontraction maintains, per supervertex u, a correction term A_u such that
subtree sums satisfy sum(u) = P_u + A_u, or root-path sums satisfy
sum'(u) = val(u) + A_u for the top-down variant.  Every partial sum P, spine
sum S and correction A is a sum of values over a set of distinct vertices,
so all of them are int64 when the sum of |values| is below 2**62; above
that they are object arrays of Python ints, run through the same code.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import SimState
from .trees import RootedTree
from .virtual_tree import VirtualTree, transform

OP_NONE = 0
OP_COMPRESS = 1
OP_RAKE = 2

BOTTOM_UP = "bottom-up"
TOP_DOWN = "top-down"

NO_COIN = 2  # coin byte of a vertex that flipped none this round
INT64_LIMIT = 2 ** 62  # sum of |values| below which P, S and A are int64
OP, MEMBER, TAG = 0, 1, 2  # fields of a log entry: op, member, round

# modeled per-vertex words: val/P/A, activity+op+round tags, log entry (op,
# two members, round), saved log entry, parent/bottom/child-count
STATE_WORDS = 14


class ContractionEngine:
    """Contraction state for one treefix run; confine to a single execution.

    Each step (a round's flag broadcasts, coins, compresses and rakes, or
    an undo round's rake and compress undos) runs as array passes over all
    of its supervertices and returns its messages as rounds of vertex-id
    arrays.  A compact round and an undo round each charge all their rounds
    with one ``SimState.send_rounds``.  Nothing the engine decides depends
    on what a message costs.
    """

    def __init__(self, sim: SimState, t: RootedTree, layout: Layout, values,
                 seed: int, vt: VirtualTree | None = None):
        n = t.n
        layout.check_size(n)
        self.sim = sim
        self.t = t
        self.vt = vt if vt is not None else transform(t, t.sizes)
        self.pos_arr = layout.pos_arr
        self.array_out = _is_int_array(values)
        self.P = _partial_sums(values)
        dtype = self.P.dtype
        # spine sum: values along the path from the representative to the
        # supervertex bottom; rakes leave it untouched, so top-down
        # corrections stay clean of off-path raked values
        self.S = self.P.copy()
        self.A = np.zeros(n, dtype=dtype)
        self.parent = t.parent
        self.svparent = t.parent.copy()
        self.child_count = np.diff(t.ptr)
        self.child_sum = np.zeros(n, dtype=np.int64)
        has = self.child_count > 0
        self.child_sum[has] = _run_sums(t.kids.astype(np.int64), t.ptr[:-1][has])
        self.bottom = np.arange(n, dtype=np.intc)
        self.active = np.ones(n, dtype=bool)
        self.op_tag = np.zeros(n, dtype=np.int8)
        self.iter_tag = np.zeros(n, dtype=np.intc)
        # log entry of each representative, and the entry saved on each
        # deactivated vertex: (op, compressed child or kept non-leaf, round),
        # one array per field.  One (n, 3) array was larger than any list a
        # later op allocates; freeing it raised glibc's mmap threshold past
        # those lists and lifted lca-65k peak RSS by 2 MiB
        self.log = (np.zeros(n, np.int8), np.full(n, -1, np.intc), np.zeros(n, np.intc))
        self.saved = tuple(a.copy() for a in self.log)
        self.rng = Lcg(seed)
        self.rounds = 0
        self.active_count = n
        self._ptr, self._child = self.vt.blocks.ptr, self.vt.blocks.dst

    # -- block gathers and charging -------------------------------------------

    def _block_slots(self, parents):
        """CSR slots of the child blocks of ``parents``, block after block in
        relay order, and the length of each block."""
        starts = self._ptr[parents]
        lens = self._ptr[parents + 1] - starts
        # add.accumulate, not np.cumsum: under numpy 2.4 repeated cumsum
        # calls left small objects alive and let the heap grow run by run
        slots = np.repeat(starts - (np.add.accumulate(lens) - lens), lens)
        slots += np.arange(len(slots), dtype=slots.dtype)
        return slots, lens

    def _broadcasts(self, us):
        """Rounds of each of us broadcasting over the child block of its
        bottom; bottoms are distinct and every vertex sits in one child
        block, so no vertex receives twice in a round."""
        return self.vt.relay_rounds(us, *self._block_slots(self.bottom[us]))

    def _charge(self, rounds) -> None:
        """Charge (src, dst) vertex-id rounds in order with one
        ``send_rounds``."""
        pos = self.pos_arr
        self.sim.send_rounds([(pos[src], pos[dst]) for src, dst in rounds])

    def _push(self, us, anchors, op, members) -> None:
        """Save each of us's log entry on its anchor, then log the new
        contraction."""
        for saved, log, new in zip(self.saved, self.log, (op, members, self.rounds)):
            saved[anchors] = log[us]
            log[us] = new

    def _pop(self, us, anchors) -> None:
        for saved, log, empty in zip(self.saved, self.log, (OP_NONE, -1, 0)):
            log[us] = saved[anchors]
            saved[anchors] = empty

    def _deactivate(self, vs, op) -> None:
        self.active[vs] = False
        self.op_tag[vs] = op
        self.iter_tag[vs] = self.rounds
        self.active_count -= len(vs)

    def _tagged(self, us, tau):
        return (self.log[OP][us] != OP_NONE) & (self.log[TAG][us] == tau)

    # -- contraction operations -------------------------------------------

    def _compress(self, u, v):
        """Contract each v[i] into its parent u[i].  The pairs are disjoint
        and none reads what another writes, so they run as one step.
        Returns its one round: each v sends to u, then to its child w.  No
        v receives in it (u is tails, and w's parent is v), so the round
        charges what sending them one at a time would."""
        w = self.child_sum[v]
        self._push(u, v, OP_COMPRESS, v)
        self.P[u] += self.P[v]
        self.S[u] += self.S[v]
        self._deactivate(v, OP_COMPRESS)
        self.child_count[u] = 1
        self.child_sum[u] = w
        self.child_count[v] = 0
        self.child_sum[v] = 0
        self.svparent[w] = u
        self.bottom[u] = self.bottom[v]
        # partial sum and inherited-child handoff, then the reparent notice
        return [(np.column_stack((v, v)).ravel(), np.column_stack((u, w)).ravel())]

    def _rake(self, us, leaf):
        """Each of us absorbs its children marked in ``leaf``, at least one
        each.  Rakers, their bottoms and their leaves are disjoint, so they
        run as one step.  Returns its rounds: each raker's reduce over its
        child block, which delivers the sum of the raked leaves, deepest
        relay level first, so every block's sends into its raker come
        last."""
        slots, lens = self._block_slots(self.bottom[us])
        rounds = [(far, near) for near, far in reversed(self.vt.relay_rounds(us, slots, lens))]
        child = self._child[slots]
        hit = leaf[child]
        raked = child[hit]
        counts = np.bincount(np.repeat(np.arange(len(us)), lens)[hit], minlength=len(us))
        starts = np.add.accumulate(counts) - counts
        ids = _run_sums(raked.astype(np.int64), starts)
        # the one child a raker keeps, if any, is what its id sum leaves
        kept = np.where(self.child_count[us] > counts, self.child_sum[us] - ids, -1)
        self._push(us, raked[starts], OP_RAKE, kept)
        self.P[us] += _run_sums(self.P[raked], starts)
        self._deactivate(raked, OP_RAKE)
        self.child_count[us] -= counts
        self.child_sum[us] -= ids
        return rounds

    # -- one round of Compact ---------------------------------------------

    def compact_round(self) -> int:
        """Branching flags down, random-mate compress, flags again, then rake
        everything eligible, charged as one ``send_rounds``.  Returns the
        number of deactivated supervertices."""
        self.rounds += 1
        before = self.active_count
        count = self.child_count
        actives = np.flatnonzero(self.active)
        coins = np.full(self.t.n, NO_COIN, dtype=np.uint8)
        coins[actives] = self.rng.next_bits(len(actives))
        rounds = self._broadcasts(actives[count[actives] > 0])
        # each non-branching supervertex sends its coin to its only child
        ones = actives[count[actives] == 1]
        rounds.append((ones, self.child_sum[ones]))
        # random mate: a heads child with one child under a tails parent
        # with one child; no vertex is both, so the compresses are disjoint
        par = self.svparent[actives]
        mate = ((par >= 0) & (count[actives] == 1) & (coins[actives] == 1)
                & (coins[par] == 0) & (count[par] == 1))
        rounds += self._compress(par[mate], actives[mate])
        live = actives[self.active[actives]]
        rounds += self._broadcasts(live[count[live] > 0])
        # eligibility is frozen before any rake: rounds are synchronized
        leaf = self.active & (count == 0)
        par = self.svparent[live]
        leaves = np.bincount(par[leaf[live] & (par >= 0)], minlength=self.t.n)[live]
        rounds += self._rake(live[(leaves > 0) & (count[live] - leaves <= 1)], leaf)
        self._charge(rounds)
        self.sim.note_words_many(self.pos_arr, STATE_WORDS)
        return before - self.active_count

    def contract(self) -> None:
        limit = 64 * max(1, math.ceil(math.log2(max(2, self.t.n)))) + 64
        while self.active_count > 1:
            self.compact_round()
            if self.rounds > limit:
                raise RuntimeError("contraction failed to make progress")

    # -- uncontraction ------------------------------------------------------

    def _undo_compress(self, us, mode):
        """Revert the compress on top of each of us's log; returns its two
        rounds, u to v and then v to u."""
        v = self.log[MEMBER][us]
        if mode == BOTTOM_UP:
            self.A[v] = self.A[us]
            self.A[us] += self.P[v]
        else:
            self.A[v] = self.A[us] + self.S[us] - self.S[v]
        self.P[us] -= self.P[v]
        self.S[us] -= self.S[v]
        # v takes over u's children: the live part of its bottom's block
        slots, lens = self._block_slots(self.bottom[us])
        child = self._child[slots]
        live = self.active[child]
        self.svparent[child[live]] = np.repeat(v, lens)[live]
        self.child_count[v] = self.child_count[us]
        self.child_sum[v] = self.child_sum[us]
        self.child_count[us] = 1
        self.child_sum[us] = v
        self.svparent[v] = us
        self.bottom[v] = self.bottom[us]
        self.bottom[us] = self.parent[v]
        self.active[v] = True
        self.active_count += len(v)
        self.op_tag[v] = OP_NONE
        self._pop(us, v)
        # wake + correction term, then the frozen partial sum back to u
        return [(us, v), (v, us)]

    def _undo_rake(self, us, mode):
        """Revert the rake on top of each of us's log.  Returns its rounds:
        the wake broadcast's levels, then the partial sums' reduce levels."""
        slots, lens = self._block_slots(self.bottom[us])
        wake = self.vt.relay_rounds(us, slots, lens)
        rounds = wake + [(far, near) for near, far in reversed(wake)]
        child = self._child[slots]
        tau = np.repeat(self.log[TAG][us], lens)
        hit = ~self.active[child] & (self.op_tag[child] == OP_RAKE) & (self.iter_tag[child] == tau)
        raked = child[hit]
        owner = np.repeat(np.arange(len(us)), lens)[hit]
        counts = np.bincount(owner, minlength=len(us))
        starts = np.add.accumulate(counts) - counts
        total = _run_sums(self.P[raked], starts)
        if mode == BOTTOM_UP:
            self.A[raked] = 0
            self.A[us] += total
        else:
            # raked leaves hang off the bottom; the wake broadcast again
            # delivers the base term
            self.A[raked] = np.repeat(self.A[us] + self.S[us], counts)
            rounds += wake
        self.P[us] -= total
        self.active[raked] = True
        self.active_count += len(raked)
        self.op_tag[raked] = OP_NONE
        self.svparent[raked] = us[owner]
        self.child_count[us] += counts
        self.child_sum[us] += _run_sums(raked.astype(np.int64), starts)
        self._pop(us, raked[starts])
        return rounds

    def undo_round(self, tau: int, mode: str) -> None:
        """Revert round tau: its rakes as one step, then the compresses left
        on top, charged as one ``send_rounds``.  A representative holds at
        most a rake on top of a compress from one round, no two read or
        write the same state, and no reactivated vertex holds an entry of
        round tau; the compress undo rounds come after every rake undo
        round, so a representative's rake undo stays before its compress
        undo."""
        reps = np.flatnonzero(self.active & self._tagged(slice(None), tau))
        rounds = self._undo_rake(reps[self.log[OP][reps] == OP_RAKE], mode)
        rounds += self._undo_compress(reps[self._tagged(reps, tau)], mode)
        self._charge(rounds)

    def uncontract(self, mode: str) -> None:
        for tau in range(self.rounds, 0, -1):
            self.undo_round(tau, mode)

    def sums(self):
        """P_u + A_u for every u: the subtree sums after a bottom-up
        uncontraction, the root-path sums after a top-down one (P is back
        to the values then).  An array if the values were an integer array,
        else a list of Python ints."""
        sums = self.P + self.A
        return sums if self.array_out else sums.tolist()


def _is_int_array(values) -> bool:
    return isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu"


def _partial_sums(values) -> np.ndarray:
    """The values as a fresh array: int64 when the sum of their absolute
    values is below INT64_LIMIT, else an object array of Python ints.

    An integer array skips the per-value ``operator.index`` pass.  Its
    bound is taken in Python ints, so neither the sum nor the absolute
    value of INT64_MIN can wrap; only when n times the largest absolute
    value reaches the limit is the exact sum taken.
    """
    if _is_int_array(values):
        big = max(int(values.max()), -int(values.min())) if len(values) else 0
        if big * len(values) < INT64_LIMIT or sum(map(abs, values.tolist())) < INT64_LIMIT:
            return values.astype(np.int64)
        return np.array(values.tolist(), dtype=object)
    try:
        vals = list(map(operator.index, values))
    except TypeError:
        raise ValueError("treefix values must be integers") from None
    return np.array(vals, dtype=np.int64 if sum(map(abs, vals)) < INT64_LIMIT else object)


def _run_sums(x, starts):
    """Sum of each run of x that begins at one of ``starts``, the last run
    ending at the end of x; every run must be non-empty."""
    return np.add.reduceat(x, starts) if len(starts) else x[:0]


def _run(sim, t, layout, values, seed, mode, vt):
    if len(values) != t.n:
        raise ValueError("one value per vertex required")
    engine = ContractionEngine(sim, t, layout, values, seed, vt=vt)
    engine.contract()
    engine.uncontract(mode)
    sim.rounds += engine.rounds
    return engine.sums()


def treefix_sum(sim: SimState, t: RootedTree, layout: Layout, values,
                seed: int, vt: VirtualTree | None = None) -> list[int] | np.ndarray:
    """Per-vertex sum over its subtree: contract to one supervertex, then
    uncontract maintaining sum(u) = P_u + A_u.

    Values must be integers, meaning anything ``operator.index`` accepts;
    anything else raises ValueError before a message is charged.  A 1-D
    integer array gives an array back (int64, or object when the sums need
    Python ints); any other values give a list of Python ints.  A rake
    adds its leaves' partial sums directly rather than folding them along
    the child block's relay order, and uncontraction subtracts them again;
    both match the fold only for exact integer arithmetic.
    """
    return _run(sim, t, layout, values, seed, BOTTOM_UP, vt)


def treefix_topdown(sim: SimState, t: RootedTree, layout: Layout, values,
                    seed: int, vt: VirtualTree | None = None) -> list[int] | np.ndarray:
    """Per-vertex sum along the path from the root, maintaining
    sum'(u) = val(u) + A_u through the same contraction.  Values must be
    integers, and arrays give arrays, as for :func:`treefix_sum`."""
    return _run(sim, t, layout, values, seed, TOP_DOWN, vt)
