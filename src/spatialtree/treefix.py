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
# vertices per array pass of a step.  A step's vertices are independent and
# in send order, so passes over consecutive slices charge what one pass
# would; slicing keeps each pass's temporary arrays near ORDERED_CHUNK
# messages, where whole-step arrays fragmented the heap that a traced run's
# growing event array lives in (peak RSS +17 % on shapes-traced)
STEP_SLICE = 1024

# modeled per-vertex words: val/P/A, activity+op+round tags, log entry (op,
# two members, round), saved log entry, parent/bottom/child-count
STATE_WORDS = 14


class ContractError(ValueError):
    """A contraction operation's precondition does not hold."""


class ContractionEngine:
    """Contraction state for one treefix run; confine to a single execution.

    Each step (a round's compresses, its rakes, an undo round) runs as
    array passes over slices of ``STEP_SLICE`` of its vertices.  Each pass
    builds its messages as arrays in the order a one-send-at-a-time engine
    sends them and charges them with one ``SimState.send_ordered``; flag
    broadcasts and parent coins go out as waves.  Nothing the engine
    decides depends on what a message costs.
    """

    def __init__(self, sim: SimState, t: RootedTree, layout: Layout, values,
                 seed: int, vt: VirtualTree | None = None):
        n = t.n
        self.sim = sim
        self.t = t
        self.vt = vt if vt is not None else transform(t, t.sizes)
        self.pos = layout.pos
        self.pos_arr = np.asarray(layout.pos, dtype=np.int32)
        try:
            vals = list(map(operator.index, values))
        except TypeError:
            raise ValueError("treefix values must be integers") from None
        dtype = np.int64 if sum(map(abs, vals)) < INT64_LIMIT else object
        self.P = np.array(vals, dtype=dtype)
        # spine sum: values along the path from the representative to the
        # supervertex bottom; rakes leave it untouched, so top-down
        # corrections stay clean of off-path raked values
        self.S = self.P.copy()
        self.A = np.zeros(n, dtype=dtype)
        self.parent = t.parent
        self.svparent = t.parent.copy()
        self.child_count = np.diff(t.ptr)
        self.child_sum = np.zeros(n, dtype=np.int64)
        np.add.at(self.child_sum, t.parent[t.kids], t.kids)
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
        self._ptr, self._relay, self._child = (np.frombuffer(a, dtype=np.intc)
                                               for a in self.vt.blocks)
        self._reduce_slots = np.frombuffer(self.vt.reduce_slots, dtype=np.intc)

    # -- block gathers and charging -------------------------------------------

    def _block_slots(self, parents):
        """CSR slots of the child blocks of ``parents``, block after block in
        relay order, and the length of each block."""
        starts = self._ptr[parents]
        lens = self._ptr[parents + 1] - starts
        # add.accumulate rather than np.cumsum, see Lcg.next_bits
        slots = np.repeat(starts - (np.add.accumulate(lens) - lens), lens)
        slots += np.arange(len(slots), dtype=slots.dtype)
        return slots, lens

    def _broadcasts(self, us, slots, lens):
        """``block_broadcast``'s messages from each of us over its gathered
        block, as vertex ids: to the current children, then down the
        appended links."""
        relay = self._relay[slots]
        return np.where(relay >= 0, relay, np.repeat(us, lens)), self._child[slots]

    def _reduces(self, us, slots, lens):
        """``block_reduce``'s messages over each gathered block to each of
        us, as vertex ids: up the appended links, then the current
        children."""
        rs = self._reduce_slots[slots]
        relay = self._relay[rs]
        return self._child[rs], np.where(relay >= 0, relay, np.repeat(us, lens))

    def _send(self, parts) -> None:
        """Charge (key, src, dst) message parts as one ordered batch, merged
        by a stable sort on key: each key's messages go out together, in
        part order."""
        key, src, dst = (np.concatenate(col) for col in zip(*parts))
        order = np.argsort(key, kind="stable")
        self.sim.send_ordered(self.pos_arr[src[order]], self.pos_arr[dst[order]])

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

    def compress(self, u: int, v: int) -> None:
        """Contract v into its parent u; v must be u's only child and have
        exactly one child itself."""
        if not (self.active[u] and self.active[v]):
            raise ContractError("compress needs two active supervertices")
        if self.svparent[v] != u:
            raise ContractError(f"{v} is not a child of {u}")
        if self.child_count[u] != 1:
            raise ContractError("parent must be non-branching")
        if self.child_count[v] != 1:
            raise ContractError("compressed vertex must have exactly one child")
        self._send(self._compress(np.array([u]), np.array([v])))

    def _compress(self, u, v):
        """Contract each v[i] into its parent u[i].  The pairs are disjoint
        and none reads what another writes, so they run as one step.
        Returns the message parts: v sends to u, then to its child w."""
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
        return [(v, v, u), (v, v, w)]

    def rake(self, u: int, leaves: list[int] | None = None, w: int = -1) -> list[int]:
        """Absorb u's leaf-supervertex children via a local reduce over the
        child block; a single non-leaf child w is allowed and contributes 0.
        Returns the raked children in block order."""
        if not self.active[u]:
            raise ContractError("rake needs an active supervertex")
        slots, _ = self._block_slots(self.bottom[[u]])
        kids = self._child[slots]
        kids = kids[self.active[kids]].tolist()
        if leaves is None:
            leaf_set = {c for c in kids if not self.child_count[c]}
            others = set(kids) - leaf_set
            if len(others) > 1:
                raise ContractError("more than one non-leaf child")
        else:
            leaf_set = set(leaves)
            if not leaf_set <= set(kids):
                raise ContractError("rake targets must be children of u")
            if any(self.child_count[c] for c in leaf_set):
                raise ContractError("rake targets must be leaf supervertices")
            others = set(kids) - leaf_set
            if len(others) > 1 or (others and others != {w}):
                raise ContractError("at most one non-rake child is allowed")
        if not leaf_set:
            raise ContractError("nothing to rake")
        mark = np.zeros(self.t.n, dtype=bool)
        mark[list(leaf_set)] = True
        self._send(self._rake(np.array([u]), mark))
        return [c for c in kids if c in leaf_set]

    def _rake(self, us, leaf):
        """Each of us absorbs its children marked in ``leaf``, at least one
        each.  Rakers, their bottoms and their leaves are disjoint, so they
        run as one step.  Returns the message parts: each raker's reduce over
        its child block, which delivers the sum of the raked leaves."""
        slots, lens = self._block_slots(self.bottom[us])
        part = (np.repeat(us, lens), *self._reduces(us, slots, lens))
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
        return [part]

    # -- one round of Compact ---------------------------------------------

    def compact_round(self) -> int:
        """Branching flags down, random-mate compress, flags again, then rake
        everything eligible.  Returns the number of deactivated supervertices."""
        self.rounds += 1
        before = self.active_count
        count = self.child_count
        actives = np.flatnonzero(self.active)
        coins = np.full(self.t.n, NO_COIN, dtype=np.uint8)
        coins[actives] = self.rng.next_bits(len(actives))
        self._flag_broadcasts(actives[count[actives] > 0])
        # each non-branching supervertex sends its coin to its only child,
        # in id order as a scan sends; every child has one parent
        ones = actives[count[actives] == 1]
        self.sim.send_wave(self.pos_arr[ones], self.pos_arr[self.child_sum[ones]])
        # random mate: a heads child with one child under a tails parent
        # with one child; no vertex is both, so the compresses are disjoint
        par = self.svparent[actives]
        mate = ((par >= 0) & (count[actives] == 1) & (coins[actives] == 1)
                & (coins[par] == 0) & (count[par] == 1))
        us, vs = par[mate], actives[mate]
        for lo in range(0, len(vs), STEP_SLICE):
            self._send(self._compress(us[lo:lo + STEP_SLICE], vs[lo:lo + STEP_SLICE]))
        live = actives[self.active[actives]]
        self._flag_broadcasts(live[count[live] > 0])
        # eligibility is frozen before any rake: rounds are synchronized
        leaf = self.active & (count == 0)
        par = self.svparent[live]
        leaves = np.bincount(par[leaf[live] & (par >= 0)], minlength=self.t.n)[live]
        rakers = live[(leaves > 0) & (count[live] - leaves <= 1)]
        for lo in range(0, len(rakers), STEP_SLICE):
            self._send(self._rake(rakers[lo:lo + STEP_SLICE], leaf))
        self.sim.note_words_many(self.pos, STATE_WORDS)
        return before - self.active_count

    def _flag_broadcasts(self, us):
        """Each of ``us`` broadcasts over the child block of its bottom, in
        order, as one wave: bottoms are distinct and every vertex sits in
        one child block."""
        src, dst = self._broadcasts(us, *self._block_slots(self.bottom[us]))
        self.sim.send_wave(self.pos_arr[src], self.pos_arr[dst])

    def contract(self) -> None:
        limit = 64 * max(1, math.ceil(math.log2(max(2, self.t.n)))) + 64
        while self.active_count > 1:
            self.compact_round()
            if self.rounds > limit:
                raise RuntimeError("contraction failed to make progress")

    # -- uncontraction ------------------------------------------------------

    def undo_at(self, u: int, mode: str) -> list[int]:
        """Pop and revert u's most recent contraction; returns the
        reactivated supervertices."""
        us = np.array([u])
        op = self.log[OP][u]
        if op == OP_COMPRESS:
            out = [int(self.log[MEMBER][u])]
            self._send(self._undo_compress(us, mode))
        elif op == OP_RAKE:
            parts, raked = self._undo_rake(us, mode)
            out = raked.tolist()
            self._send(parts)
        else:
            raise ContractError(f"nothing to undo at {u}")
        return out

    def _undo_compress(self, us, mode):
        """Revert the compress on top of each of us's log; returns the
        message parts keyed by representative."""
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
        return [(us, us, v), (us, v, us)]

    def _undo_rake(self, us, mode):
        """Revert the rake on top of each of us's log.  Returns the message
        parts keyed by representative, and the reactivated leaves in block
        order."""
        slots, lens = self._block_slots(self.bottom[us])
        key = np.repeat(us, lens)
        wake = (key, *self._broadcasts(us, slots, lens))
        parts = [wake, (key, *self._reduces(us, slots, lens))]  # + partial sums
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
            parts.append(wake)
        self.P[us] -= total
        self.active[raked] = True
        self.active_count += len(raked)
        self.op_tag[raked] = OP_NONE
        self.svparent[raked] = us[owner]
        self.child_count[us] += counts
        self.child_sum[us] += _run_sums(raked.astype(np.int64), starts)
        self._pop(us, raked[starts])
        return parts, raked

    def undo_round(self, tau: int, mode: str) -> None:
        """Revert round tau: its rakes as one step, then the compresses left
        on top.  A representative holds at most a rake on top of a compress
        from one round, no two read or write the same state, and no
        reactivated vertex holds an entry of round tau; so merging the
        steps' messages by representative gives the order of undoing each
        representative in turn, in id order."""
        reps = np.flatnonzero(self.active & self._tagged(slice(None), tau))
        for lo in range(0, len(reps), STEP_SLICE):
            us = reps[lo:lo + STEP_SLICE]
            parts, _ = self._undo_rake(us[self.log[OP][us] == OP_RAKE], mode)
            parts += self._undo_compress(us[self._tagged(us, tau)], mode)
            self._send(parts)

    def uncontract(self, mode: str) -> None:
        for tau in range(self.rounds, 0, -1):
            self.undo_round(tau, mode)

    def sums(self) -> list[int]:
        """P_u + A_u for every u, as Python ints: the subtree sums after a
        bottom-up uncontraction, the root-path sums after a top-down one
        (P is back to the values then)."""
        return (self.P + self.A).tolist()

    def structure_signature(self):
        """Snapshot of the live supervertex forest, for reversibility checks."""
        live = np.flatnonzero(self.active)
        vs = live.tolist()
        par = self.svparent[live].tolist()
        kids = {v: [] for v in vs}
        for v, p in zip(vs, par):
            if p >= 0:
                kids[p].append(v)
        return tuple(zip(vs, par, self.bottom[live].tolist(), self.P[live].tolist(),
                         map(tuple, kids.values())))


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
                seed: int, vt: VirtualTree | None = None) -> list[int]:
    """Per-vertex sum over its subtree: contract to one supervertex, then
    uncontract maintaining sum(u) = P_u + A_u.

    Values must be integers, meaning anything ``operator.index`` accepts;
    anything else raises ValueError before a message is charged.  A rake
    adds its leaves' partial sums directly rather than folding them along
    the child block's relay order, and uncontraction subtracts them again;
    both match the fold only for exact integer arithmetic.
    """
    return _run(sim, t, layout, values, seed, BOTTOM_UP, vt)


def treefix_topdown(sim: SimState, t: RootedTree, layout: Layout, values,
                    seed: int, vt: VirtualTree | None = None) -> list[int]:
    """Per-vertex sum along the path from the root, maintaining
    sum'(u) = val(u) + A_u through the same contraction.  Values must be
    integers, as for :func:`treefix_sum`."""
    return _run(sim, t, layout, values, seed, TOP_DOWN, vt)
