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

Uncontraction maintains, per supervertex u, a correction term A_u such that
subtree sums satisfy sum(u) = P_u + A_u, or root-path sums satisfy
sum'(u) = val(u) + A_u for the top-down variant.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import compress

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import ORDERED_CHUNK, SimState
from .trees import RootedTree, subtree_sizes
from .virtual_tree import VirtualTree, block_members, transform

OP_NONE = 0
OP_COMPRESS = 1
OP_RAKE = 2

BOTTOM_UP = "bottom-up"
TOP_DOWN = "top-down"

NO_COIN = 2  # coin byte of a vertex that flipped none this round
# shared child set of every childless supervertex: leaves never gain
# children, and a compressed vertex gets its set back only on undo
NO_CHILDREN: frozenset[int] = frozenset()

# modeled per-vertex words: val/P/A, activity+op+round tags, log entry (op,
# two members, round), saved log entry, parent/bottom/child-count
STATE_WORDS = 14


class ContractError(ValueError):
    """A contraction operation's precondition does not hold."""


class ContractionEngine:
    """Contraction state for one treefix run; confine to a single execution.

    Messages of compresses, rakes and undos are queued in the order a
    one-send-at-a-time engine would send them, and charged with
    ``SimState.send_ordered`` before each flag or coin wave, at the end of
    each round, before a public single operation returns, and whenever
    ``ORDERED_CHUNK`` messages wait.  Nothing the engine decides depends on
    what a message costs, so the queue changes no cost and no trace event.
    """

    def __init__(self, sim: SimState, t: RootedTree, layout: Layout, values,
                 seed: int, vt: VirtualTree | None = None,
                 asynchronous: bool = False):
        n = t.n
        self.sim = sim
        self.t = t
        self.vt = vt if vt is not None else transform(t, subtree_sizes(t))
        self.pos = layout.pos
        self.pos_arr = np.asarray(layout.pos, dtype=np.int32)
        try:
            self.P = list(map(operator.index, values))
        except TypeError:
            raise ValueError("treefix values must be integers") from None
        self.A = [0] * n
        # spine sum: values along the path from the representative to the
        # supervertex bottom; rakes leave it untouched, so top-down
        # corrections stay clean of off-path raked values
        self.S = list(self.P)
        self.active = [True] * n
        self.op_tag = [OP_NONE] * n
        self.iter_tag = [0] * n
        self.lc_op = [OP_NONE] * n
        self.lc_member = [-1] * n  # compressed child or kept non-leaf, -1 = none
        self.lc_tag = [0] * n
        self.saved: list[tuple | None] = [None] * n
        self.svparent = list(t.parent)
        self.children = [set(cs) if cs else NO_CHILDREN for cs in t.children]
        self.bottom = array("i", range(n))  # not n fresh 28-byte Python ints
        self.rng = Lcg(seed)
        self.rounds = 0
        # representatives whose log entry each round set, one array per
        # round (index 0 for operations called outside compact_round)
        self.round_reps = [array("i")]
        self.active_count = n
        self.asynchronous = asynchronous
        self._qsrc = array("i")
        self._qdst = array("i")

    # -- the message queue ----------------------------------------------------

    def _queue_send(self, src: int, dst: int) -> None:
        self._qsrc.append(src)
        self._qdst.append(dst)
        if len(self._qsrc) >= ORDERED_CHUNK:
            self._flush()

    def _queue_broadcast(self, u: int, parent_vertex: int) -> None:
        """Queue ``block_broadcast``'s messages from u over the child block
        of parent_vertex: to the current children, then the relays down the
        appended links."""
        b = self.vt.blocks
        lo, hi = b.ptr[parent_vertex], b.ptr[parent_vertex + 1]
        kept = len(self.vt.cur[parent_vertex])  # the block's first slots
        self._qsrc.extend([u] * kept)
        self._qsrc.extend(b.src[lo + kept:hi])
        self._qdst.extend(b.dst[lo:hi])
        if len(self._qsrc) >= ORDERED_CHUNK:
            self._flush()

    def _queue_reduce(self, parent_vertex: int, u: int) -> None:
        """Queue ``block_reduce``'s messages over the child block of
        parent_vertex: up the appended links, then the current children
        to u."""
        b = self.vt.blocks
        lo, hi = b.ptr[parent_vertex], b.ptr[parent_vertex + 1]
        kept = len(self.vt.cur[parent_vertex])  # the block's last slots
        slots = self.vt.reduce_slots[lo:hi]
        self._qsrc.extend(map(b.dst.__getitem__, slots))
        self._qdst.extend(map(b.src.__getitem__, slots[:hi - lo - kept]))
        self._qdst.extend([u] * kept)
        if len(self._qsrc) >= ORDERED_CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Charge the queued messages in queue order."""
        if self._qsrc:
            src, dst = self._qsrc, self._qdst
            self._qsrc, self._qdst = array("i"), array("i")
            self.sim.send_ordered(self.pos_arr[np.frombuffer(src, dtype=np.intc)],
                                  self.pos_arr[np.frombuffer(dst, dtype=np.intc)])

    # -- contraction operations -------------------------------------------

    def compress(self, u: int, v: int) -> None:
        """Contract v into its parent u; v must be u's only child and have
        exactly one child itself."""
        if not (self.active[u] and self.active[v]):
            raise ContractError("compress needs two active supervertices")
        if self.svparent[v] != u:
            raise ContractError(f"{v} is not a child of {u}")
        if len(self.children[u]) != 1:
            raise ContractError("parent must be non-branching")
        if len(self.children[v]) != 1:
            raise ContractError("compressed vertex must have exactly one child")
        self._compress(u, v)
        self._flush()

    def _compress(self, u: int, v: int) -> None:
        w = next(iter(self.children[v]))
        self._queue_send(v, u)  # partial sum and inherited-child handoff
        self._queue_send(v, w)  # reparent notice
        self.saved[v] = (self.lc_op[u], self.lc_member[u], self.lc_tag[u])
        self.lc_op[u] = OP_COMPRESS
        self.lc_member[u] = v
        self.lc_tag[u] = self.rounds
        self.round_reps[self.rounds].append(u)
        self.P[u] += self.P[v]
        self.S[u] += self.S[v]
        self.active[v] = False
        self.op_tag[v] = OP_COMPRESS
        self.iter_tag[v] = self.rounds
        self.children[u] = self.children[v]
        self.children[v] = NO_CHILDREN
        self.svparent[w] = u
        self.bottom[u] = self.bottom[v]
        self.active_count -= 1

    def rake(self, u: int, leaves: list[int] | None = None, w: int = -1) -> list[int]:
        """Absorb u's leaf-supervertex children via a local reduce over the
        child block; a single non-leaf child w is allowed and contributes 0.
        Returns the raked children in block order."""
        if not self.active[u]:
            raise ContractError("rake needs an active supervertex")
        kids = self.children[u]
        if leaves is None:
            leaf_set = {c for c in kids if not self.children[c]}
            others = kids - leaf_set
            if len(others) > 1:
                raise ContractError("more than one non-leaf child")
        else:
            leaf_set = set(leaves)
            if not leaf_set <= kids:
                raise ContractError("rake targets must be children of u")
            if any(self.children[c] for c in leaf_set):
                raise ContractError("rake targets must be leaf supervertices")
            others = kids - leaf_set
            if len(others) > 1 or (others and others != {w}):
                raise ContractError("at most one non-rake child is allowed")
        if not leaf_set:
            raise ContractError("nothing to rake")
        w = next(iter(others)) if others else -1
        ordered = [c for c in block_members(self.vt, self.bottom[u]) if c in leaf_set]
        self._rake(u, ordered, w)
        self._flush()
        return ordered

    def _rake(self, u, ordered, w):
        """The one rake path: queue the reduce over u's child block, which
        delivers the sum of the raked leaves, then absorb them."""
        self._queue_reduce(self.bottom[u], u)
        self._apply_rake(u, ordered, w, sum(map(self.P.__getitem__, ordered)))

    def _apply_rake(self, u, ordered, w, total):
        anchor = ordered[0]
        self.saved[anchor] = (self.lc_op[u], self.lc_member[u], self.lc_tag[u])
        self.lc_op[u] = OP_RAKE
        self.lc_member[u] = w
        self.lc_tag[u] = self.rounds
        self.round_reps[self.rounds].append(u)
        self.P[u] += total
        for c in ordered:
            self.active[c] = False
            self.op_tag[c] = OP_RAKE
            self.iter_tag[c] = self.rounds
            self.children[u].discard(c)
        self.active_count -= len(ordered)

    # -- one round of Compact ---------------------------------------------

    def compact_round(self) -> int:
        """Branching flags down, random-mate compress, flags again, then rake
        everything eligible.  Returns the number of deactivated supervertices."""
        self.rounds += 1
        self.round_reps.append(array("i"))
        before = self.active_count
        actives = list(compress(range(self.t.n), self.active))
        coins = np.full(self.t.n, NO_COIN, dtype=np.uint8)
        coins[actives] = self.rng.next_bits(len(actives))
        if self.asynchronous:
            self._eager_round(actives, bytearray(coins))
        else:
            self._synchronous_round(actives, coins)
        self._flush()
        self.sim.note_words_many(self.pos, STATE_WORDS)
        return before - self.active_count

    def _parent_and_degree(self, vs):
        """Arrays of the supervertex parent and child count of each of vs."""
        par = np.fromiter(map(self.svparent.__getitem__, vs), np.int32, len(vs))
        deg = np.fromiter(map(len, map(self.children.__getitem__, vs)), np.int32, len(vs))
        return par, deg

    def _synchronous_round(self, actives, coins):
        """One round against round-start state, with mate selection and rake
        eligibility decided for every live supervertex at once."""
        n = self.t.n
        children = self.children
        self._flag_broadcasts(list(compress(actives, map(children.__getitem__, actives))))
        par, deg = self._parent_and_degree(actives)
        live = np.array(actives, dtype=np.int32)
        # live ascends and holds every parent, so a search finds its index
        up = np.searchsorted(live, par)
        up[par < 0] = 0
        only = (par >= 0) & (deg[up] == 1)  # its parent's only child
        order = np.argsort(par[only])  # senders in id order, as a scan sends
        self._parent_coins(par[only][order], live[only][order])
        # random mate: a heads child with one child under a tails parent
        # with one child; no vertex is both, so the compresses are disjoint
        mate = only & (deg == 1) & (coins[live] == 1) & (coins[par] == 0)
        for u, v in zip(par[mate].tolist(), live[mate].tolist()):
            self._compress(u, v)
        live = list(compress(actives, map(self.active.__getitem__, actives)))
        self._flag_broadcasts(list(compress(live, map(children.__getitem__, live))))
        # eligibility is frozen before any rake: rounds are synchronized
        par, deg = self._parent_and_degree(live)
        live = np.array(live, dtype=np.int32)
        up = np.searchsorted(live, par)
        leaf = deg == 0
        rooted = par >= 0
        leaves = np.bincount(up[leaf & rooted], minlength=len(live))
        can = (leaves > 0) & (deg - leaves <= 1)
        kept = np.full(len(live), -1, dtype=np.int32)  # a raker's non-leaf child
        kept[up[~leaf & rooted]] = live[~leaf & rooted]
        is_leaf = np.zeros(n, dtype=np.uint8)
        is_leaf[live[leaf]] = 1
        is_leaf = is_leaf.tobytes()
        b = self.vt.blocks
        bottom = self.bottom
        for u, w in zip(live[can].tolist(), kept[can].tolist()):
            lo, hi = b.ptr[bottom[u]], b.ptr[bottom[u] + 1]
            self._rake(u, [c for c in b.dst[lo:hi] if is_leaf[c]], w)

    def _flag_broadcasts(self, us):
        """Each of ``us`` broadcasts over the child block of its bottom, in
        order, as one wave: bottoms are distinct and every vertex sits in
        one child block."""
        self._flush()
        if not us:
            return
        ptr, relay, child = (np.frombuffer(a, dtype=np.intc) for a in self.vt.blocks)
        bottoms = np.frombuffer(self.bottom, dtype=np.intc)[us]
        starts = ptr[bottoms]
        lens = ptr[bottoms + 1] - starts
        # entry k of the wave reads CSR slot starts[j] + (k - offset of j);
        # add.accumulate rather than np.cumsum, see Lcg.next_bits
        slots = np.repeat(starts - (np.add.accumulate(lens) - lens), lens)
        slots += np.arange(len(slots), dtype=np.int32)
        src = np.repeat(self.pos_arr[us], lens)
        relay = relay[slots]
        relayed = relay >= 0
        src[relayed] = self.pos_arr[relay[relayed]]
        self.sim.send_wave(src, self.pos_arr[child[slots]])

    def _parent_coins(self, us, kids):
        """Each non-branching supervertex of ``us`` sends its coin to its
        only child in ``kids``, as one wave: every child has one parent."""
        self._flush()
        self.sim.send_wave(self.pos_arr[us], self.pos_arr[kids])

    def _in_mate_set(self, v, coin):
        u = self.svparent[v]
        if u < 0 or not self.active[v]:
            return False
        return (coin[v] == 1 and coin[u] == 0
                and len(self.children[u]) == 1 and len(self.children[v]) == 1)

    def _rake_plan(self, u):
        kids = self.children[u]
        if not kids:
            return None
        leaf_set = {c for c in kids if not self.children[c]}
        if not leaf_set or len(kids) - len(leaf_set) > 1:
            return None
        others = kids - leaf_set
        w = next(iter(others)) if others else -1
        ordered = [c for c in block_members(self.vt, self.bottom[u]) if c in leaf_set]
        return ordered, w

    def _eager_round(self, actives, coin):
        """No-global-barrier variant: each vertex runs its steps as soon as
        possible, against current rather than round-start state."""
        order = list(actives)
        for i in range(len(order) - 1, 0, -1):
            j = self.rng.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        self._flag_broadcasts([u for u in order if self.children[u]])
        for v in order:
            if not self.active[v]:
                continue
            u = self.svparent[v]
            if u >= 0 and len(self.children[u]) == 1:
                self._queue_send(u, v)
            if self._in_mate_set(v, coin):
                self._compress(u, v)
        for u in order:
            if not self.active[u]:
                continue
            plan = self._rake_plan(u)
            if plan is not None:
                self._queue_broadcast(u, self.bottom[u])
                self._rake(u, *plan)

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
        out = self._undo(u, mode)
        self._flush()
        return out

    def _undo(self, u: int, mode: str) -> list[int]:
        op = self.lc_op[u]
        if op == OP_COMPRESS:
            v = self.lc_member[u]
            self._queue_send(u, v)  # wake + correction term
            self._queue_send(v, u)  # frozen partial sum back to u
            if mode == BOTTOM_UP:
                self.A[v] = self.A[u]
                self.A[u] += self.P[v]
            else:
                self.A[v] = self.A[u] + self.S[u] - self.S[v]
            self.P[u] -= self.P[v]
            self.S[u] -= self.S[v]
            w_set = self.children[u]
            self.children[v] = w_set
            for w in w_set:
                self.svparent[w] = v
            self.children[u] = {v}
            self.svparent[v] = u
            self.bottom[v] = self.bottom[u]
            self.bottom[u] = self.t.parent[v]
            self.active[v] = True
            self.active_count += 1
            self.op_tag[v] = OP_NONE
            (self.lc_op[u], self.lc_member[u], self.lc_tag[u]) = self.saved[v]
            self.saved[v] = None
            return [v]
        if op == OP_RAKE:
            tau = self.lc_tag[u]
            bot = self.bottom[u]
            self._queue_broadcast(u, bot)  # wake call
            raked = [c for c in block_members(self.vt, bot)
                     if not self.active[c] and self.op_tag[c] == OP_RAKE
                     and self.iter_tag[c] == tau]
            self._queue_reduce(bot, u)  # the raked leaves' partial sums
            total = sum(map(self.P.__getitem__, raked))
            if mode == BOTTOM_UP:
                for c in raked:
                    self.A[c] = 0
                self.A[u] += total
            else:
                base = self.A[u] + self.S[u]  # raked leaves hang off the bottom
                self._queue_broadcast(u, bot)  # deliver base term
                for c in raked:
                    self.A[c] = base
            self.P[u] -= total
            for c in raked:
                self.active[c] = True
                self.children[u].add(c)
                self.svparent[c] = u
                self.op_tag[c] = OP_NONE
            self.active_count += len(raked)
            anchor = raked[0]
            (self.lc_op[u], self.lc_member[u], self.lc_tag[u]) = self.saved[anchor]
            self.saved[anchor] = None
            return raked
        raise ContractError(f"nothing to undo at {u}")

    def undo_round(self, tau: int, mode: str) -> None:
        # a log entry tagged tau was set in round tau, so its representative
        # is in that round's record; ids ascend as in a scan of all vertices
        work = [u for u in sorted(set(self.round_reps[tau]))
                if self.active[u] and self.lc_op[u] != OP_NONE and self.lc_tag[u] == tau]
        while work:
            nxt = []
            for u in work:
                while (self.active[u] and self.lc_op[u] != OP_NONE
                       and self.lc_tag[u] == tau):
                    for x in self._undo(u, mode):
                        if self.lc_op[x] != OP_NONE and self.lc_tag[x] == tau:
                            nxt.append(x)
            work = nxt
        self._flush()

    def uncontract(self, mode: str) -> None:
        for tau in range(self.rounds, 0, -1):
            self.undo_round(tau, mode)

    def structure_signature(self):
        """Snapshot of the live supervertex forest, for reversibility checks."""
        return tuple(sorted(
            (v, self.svparent[v], self.bottom[v], self.P[v],
             tuple(sorted(self.children[v])))
            for v in range(self.t.n) if self.active[v]))


def _run(sim, t, layout, values, seed, mode, vt, asynchronous):
    if len(values) != t.n:
        raise ValueError("one value per vertex required")
    engine = ContractionEngine(sim, t, layout, values, seed, vt=vt,
                               asynchronous=asynchronous)
    engine.contract()
    engine.uncontract(mode)
    sim.rounds += engine.rounds
    if mode == BOTTOM_UP:
        return [engine.P[v] + engine.A[v] for v in range(t.n)]
    return list(map(operator.add, map(operator.index, values), engine.A))


def treefix_sum(sim: SimState, t: RootedTree, layout: Layout, values,
                seed: int, vt: VirtualTree | None = None,
                asynchronous: bool = False) -> list[int]:
    """Per-vertex sum over its subtree: contract to one supervertex, then
    uncontract maintaining sum(u) = P_u + A_u.

    Values must be integers, meaning anything ``operator.index`` accepts;
    anything else raises ValueError before a message is charged.  A rake
    adds its leaves' partial sums directly rather than folding them along
    the child block's relay order, and uncontraction subtracts them again;
    both match the fold only for exact integer arithmetic.
    """
    return _run(sim, t, layout, values, seed, BOTTOM_UP, vt, asynchronous)


def treefix_topdown(sim: SimState, t: RootedTree, layout: Layout, values,
                    seed: int, vt: VirtualTree | None = None,
                    asynchronous: bool = False) -> list[int]:
    """Per-vertex sum along the path from the root, maintaining
    sum'(u) = val(u) + A_u through the same contraction.  Values must be
    integers, as for :func:`treefix_sum`."""
    return _run(sim, t, layout, values, seed, TOP_DOWN, vt, asynchronous)
