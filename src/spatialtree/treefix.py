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
from array import array
from itertools import compress

import numpy as np

from .layout import Layout
from .rng import Lcg
from .sim import SimState
from .trees import RootedTree, subtree_sizes
from .virtual_tree import VirtualTree, block_broadcast, block_members, block_reduce, transform

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
    """Contraction state for one treefix run; confine to a single execution."""

    def __init__(self, sim: SimState, t: RootedTree, layout: Layout, values,
                 seed: int, vt: VirtualTree | None = None,
                 asynchronous: bool = False):
        n = t.n
        self.sim = sim
        self.t = t
        self.vt = vt if vt is not None else transform(t, subtree_sizes(t))
        self.pos = layout.pos
        self.pos_arr = np.asarray(layout.pos, dtype=np.int32)
        self.val = list(values)
        self.P = list(values)
        self.A = [0] * n
        # spine sum: values along the path from the representative to the
        # supervertex bottom; rakes leave it untouched, so top-down
        # corrections stay clean of off-path raked values
        self.S = list(values)
        self.active = [True] * n
        self.op_tag = [OP_NONE] * n
        self.iter_tag = [0] * n
        self.lc_op = [OP_NONE] * n
        self.lc_member = [-1] * n  # compressed child or kept non-leaf, -1 = none
        self.lc_tag = [0] * n
        self.saved: list[tuple | None] = [None] * n
        self.svparent = list(t.parent)
        self.children = [set(cs) if cs else NO_CHILDREN for cs in t.children]
        self.bottom = list(range(n))
        self.rng = Lcg(seed)
        self.rounds = 0
        # representatives whose log entry each round set, one array per
        # round (index 0 for operations called outside compact_round)
        self.round_reps = [array("i")]
        self.active_count = n
        self.asynchronous = asynchronous

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
        pos = self.pos
        w = next(iter(self.children[v]))
        self.sim.send(pos[v], pos[u])  # partial sum and inherited-child handoff
        self.sim.send(pos[v], pos[w])  # reparent notice
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
            w = next(iter(others)) if others else -1
        else:
            leaf_set = set(leaves)
            if not leaf_set <= kids:
                raise ContractError("rake targets must be children of u")
            if any(self.children[c] for c in leaf_set):
                raise ContractError("rake targets must be leaf supervertices")
            others = kids - leaf_set
            if len(others) > 1 or (others and others != {w}):
                raise ContractError("at most one non-rake child is allowed")
            w = next(iter(others)) if others else -1
        if not leaf_set:
            raise ContractError("nothing to rake")
        ordered = [c for c in block_members(self.vt, self.bottom[u]) if c in leaf_set]
        total = block_reduce(self.sim, self.vt, self.pos, self.bottom[u],
                             self.pos[u],
                             lambda c: self.P[c] if c in leaf_set else 0,
                             lambda a, b: a + b, 0)
        self._apply_rake(u, ordered, w, total)
        return ordered

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
        sim = self.sim
        pos = self.pos
        self.rounds += 1
        self.round_reps.append(array("i"))
        before = self.active_count
        actives = list(compress(range(self.t.n), self.active))
        coins = np.full(self.t.n, NO_COIN, dtype=np.uint8)
        coins[actives] = self.rng.next_bits(len(actives))
        coin = bytearray(coins)  # read per vertex from Python below
        if self.asynchronous:
            self._eager_round(actives, coin)
        else:
            self._flag_broadcasts(actives)
            self._parent_coins(actives)
            selected = [v for v in actives if self._in_mate_set(v, coin)]
            for v in selected:
                self.compress(self.svparent[v], v)
            self._flag_broadcasts(actives)
            # eligibility is frozen before any rake: rounds are synchronized
            plans = []
            for u in actives:
                if not self.active[u]:
                    continue
                plan = self._rake_plan(u)
                if plan is not None:
                    plans.append((u, plan))
            for u, (ordered, w) in plans:
                total = block_reduce(sim, self.vt, pos, self.bottom[u], pos[u],
                                     lambda c, ls=set(ordered): self.P[c] if c in ls else 0,
                                     lambda a, b: a + b, 0)
                self._apply_rake(u, ordered, w, total)
        self.sim.note_words_many(self.pos, STATE_WORDS)
        return before - self.active_count

    def _flag_broadcasts(self, actives):
        """Each live supervertex with children broadcasts over the child
        block of its bottom, in the order of ``actives``, as one wave:
        bottoms are distinct and every vertex sits in one child block."""
        us = [u for u in actives if self.active[u] and self.children[u]]
        if not us:
            return
        ptr, relay, child = (np.frombuffer(a, dtype=np.intc) for a in self.vt.blocks)
        bottoms = np.fromiter(map(self.bottom.__getitem__, us), np.int32, len(us))
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

    def _parent_coins(self, actives):
        """Each non-branching supervertex sends its coin to its only child,
        as one wave in the order of ``actives``: every child has one parent."""
        children = self.children
        us = [u for u in actives if len(children[u]) == 1]
        kids = [next(iter(children[u])) for u in us]
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
        sim = self.sim
        pos = self.pos
        order = list(actives)
        for i in range(len(order) - 1, 0, -1):
            j = self.rng.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        self._flag_broadcasts(order)
        for v in order:
            if not self.active[v]:
                continue
            u = self.svparent[v]
            if u >= 0 and len(self.children[u]) == 1:
                sim.send(pos[u], pos[v])
            if self._in_mate_set(v, coin):
                self.compress(u, v)
        for u in order:
            if not self.active[u]:
                continue
            plan = self._rake_plan(u)
            if plan is not None:
                ordered, w = plan
                block_broadcast(sim, self.vt, pos, pos[u], self.bottom[u])
                total = block_reduce(sim, self.vt, pos, self.bottom[u], pos[u],
                                     lambda c, ls=set(ordered): self.P[c] if c in ls else 0,
                                     lambda a, b: a + b, 0)
                self._apply_rake(u, ordered, w, total)

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
        sim = self.sim
        pos = self.pos
        op = self.lc_op[u]
        if op == OP_COMPRESS:
            v = self.lc_member[u]
            sim.send(pos[u], pos[v])  # wake + correction term
            sim.send(pos[v], pos[u])  # frozen partial sum back to u
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
            block_broadcast(sim, self.vt, pos, pos[u], bot)  # wake call
            raked = [c for c in block_members(self.vt, bot)
                     if not self.active[c] and self.op_tag[c] == OP_RAKE
                     and self.iter_tag[c] == tau]
            raked_set = set(raked)
            total = block_reduce(sim, self.vt, pos, bot, pos[u],
                                 lambda c: self.P[c] if c in raked_set else 0,
                                 lambda a, b: a + b, 0)
            if mode == BOTTOM_UP:
                for c in raked:
                    self.A[c] = 0
                self.A[u] += total
            else:
                base = self.A[u] + self.S[u]  # raked leaves hang off the bottom
                block_broadcast(sim, self.vt, pos, pos[u], bot)  # deliver base term
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
                    for x in self.undo_at(u, mode):
                        if self.lc_op[x] != OP_NONE and self.lc_tag[x] == tau:
                            nxt.append(x)
            work = nxt

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
    return [engine.val[v] + engine.A[v] for v in range(t.n)]


def treefix_sum(sim: SimState, t: RootedTree, layout: Layout, values,
                seed: int, vt: VirtualTree | None = None,
                asynchronous: bool = False) -> list[int]:
    """Per-vertex sum over its subtree: contract to one supervertex, then
    uncontract maintaining sum(u) = P_u + A_u."""
    return _run(sim, t, layout, values, seed, BOTTOM_UP, vt, asynchronous)


def treefix_topdown(sim: SimState, t: RootedTree, layout: Layout, values,
                    seed: int, vt: VirtualTree | None = None,
                    asynchronous: bool = False) -> list[int]:
    """Per-vertex sum along the path from the root, maintaining
    sum'(u) = val(u) + A_u through the same contraction."""
    return _run(sim, t, layout, values, seed, TOP_DOWN, vt, asynchronous)
