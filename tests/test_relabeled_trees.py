"""The array engine against a per-vertex reference, on plain and relabelled
trees.

Every generator numbers parents before their children; relabelling a
generated tree with a random permutation breaks that order.  Treefix charges
each step level-synchronously, so its costs must not depend on the order
either.  ``ContractionEngine`` runs each step as array passes and charges a
whole compact or undo round with one ``send_rounds``; it must still match
``ReferenceEngine``, which keeps a Python set of children per supervertex,
runs every operation one vertex at a time, files each message under its
round as it goes, and charges every round with its own ``sim.send_round``.
The reference finds a block's relay levels by walking virtual parents, not
from ``VirtualTree.level``.
"""

import math
import operator

import numpy as np
import pytest

from spatialtree import treefix
from spatialtree.cli import _random_queries
from spatialtree.curves import CurveKind
from spatialtree.layout import light_first_layout
from spatialtree.lca import batched_lca
from spatialtree.rng import Lcg
from spatialtree.sim import SimState
from spatialtree.treefix import BOTTOM_UP, NO_COIN, OP_COMPRESS, OP_NONE, OP_RAKE, STATE_WORDS
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, gen_tree, lca_naive,
                               root_path_sums, subtree_sizes, subtree_sums)
from spatialtree.virtual_tree import transform
from test_treefix import structure_signature


def block_members(vt, parent_vertex):
    """Original children of parent_vertex in block relay order."""
    b = vt.blocks
    return b.dst[b.ptr[parent_vertex]:b.ptr[parent_vertex + 1]].tolist()


def relay_levels(vt, n):
    """Each vertex's relay level in its parent's block: 0 when its virtual
    parent is its parent, else one more than its virtual parent's.  Relay
    order puts every relay before the children it relays to."""
    level = [0] * n
    for p in range(n):
        for c in block_members(vt, p):
            x = vt.vparent[c]
            level[c] = 0 if x == p else level[x] + 1
    return level


class ReferenceEngine:
    """Per-vertex contraction: a set of children per supervertex, a Python
    loop over vertices for every step, and the messages of each step filed
    one at a time under their relay level, one ``sim.send_round`` each."""

    def __init__(self, sim, t, layout, values, seed, vt=None):
        n = t.n
        self.sim = sim
        self.t = t
        self.vt = vt if vt is not None else transform(t, subtree_sizes(t))
        self.level = relay_levels(self.vt, n)
        self.pos = layout.pos
        try:
            self.P = list(map(operator.index, values))
        except TypeError:
            raise ValueError("treefix values must be integers") from None
        self.A = [0] * n
        self.S = list(self.P)
        self.array_out = isinstance(values, np.ndarray)
        self.active = [True] * n
        self.op_tag = [OP_NONE] * n
        self.iter_tag = [0] * n
        self.lc = [(OP_NONE, -1, 0)] * n  # (op, member, round)
        self.saved = [None] * n
        self.svparent = list(t.parent)
        self.children = [set(cs) for cs in t.children]
        self.bottom = list(range(n))
        self.rng = Lcg(seed)
        self.rounds = 0
        self.active_count = n

    def send_round(self, pairs):
        if pairs:
            self.sim.send_round(np.array([self.pos[u] for u, _ in pairs]),
                                np.array([self.pos[v] for _, v in pairs]))

    def send_levels(self, levels, top_first):
        for j in sorted(levels, reverse=not top_first):
            self.send_round(levels[j])

    def broadcast(self, u, parent_vertex, levels):
        """File u's broadcast over the block of parent_vertex: level 0 from
        u, deeper levels from the relaying sibling."""
        for c in block_members(self.vt, parent_vertex):
            j = self.level[c]
            levels.setdefault(j, []).append((self.vt.vparent[c] if j else u, c))

    def reduce(self, parent_vertex, u, levels):
        for c in block_members(self.vt, parent_vertex):
            j = self.level[c]
            levels.setdefault(j, []).append((c, self.vt.vparent[c] if j else u))

    def compress(self, u, v, sends):
        w = next(iter(self.children[v]))
        sends += [(v, u), (v, w)]
        self.saved[v] = self.lc[u]
        self.lc[u] = (OP_COMPRESS, v, self.rounds)
        self.P[u] += self.P[v]
        self.S[u] += self.S[v]
        self.active[v] = False
        self.op_tag[v] = OP_COMPRESS
        self.iter_tag[v] = self.rounds
        self.children[u] = self.children[v]
        self.children[v] = set()
        self.svparent[w] = u
        self.bottom[u] = self.bottom[v]
        self.active_count -= 1

    def rake(self, u, ordered, w, levels):
        self.reduce(self.bottom[u], u, levels)
        self.saved[ordered[0]] = self.lc[u]
        self.lc[u] = (OP_RAKE, w, self.rounds)
        self.P[u] += sum(self.P[c] for c in ordered)
        for c in ordered:
            self.active[c] = False
            self.op_tag[c] = OP_RAKE
            self.iter_tag[c] = self.rounds
            self.children[u].discard(c)
        self.active_count -= len(ordered)

    def compact_round(self):
        self.rounds += 1
        before = self.active_count
        n = self.t.n
        actives = [v for v in range(n) if self.active[v]]
        coins = [NO_COIN] * n
        for v, c in zip(actives, self.rng.next_bits(len(actives)).tolist()):
            coins[v] = c
        flags, coin_sends, compress_sends, flags2, rakes = {}, [], [], {}, {}
        for u in actives:
            if self.children[u]:
                self.broadcast(u, self.bottom[u], flags)
        for u in actives:
            if len(self.children[u]) == 1:
                coin_sends.append((u, next(iter(self.children[u]))))
        mates = [(self.svparent[v], v) for v in actives
                 if self.svparent[v] >= 0 and len(self.children[v]) == 1
                 and len(self.children[self.svparent[v]]) == 1
                 and coins[v] == 1 and coins[self.svparent[v]] == 0]
        for u, v in mates:
            self.compress(u, v, compress_sends)
        live = [v for v in actives if self.active[v]]
        for u in live:
            if self.children[u]:
                self.broadcast(u, self.bottom[u], flags2)
        plans = []
        for u in live:
            kids = self.children[u]
            leaves = {c for c in kids if not self.children[c]}
            if leaves and len(kids) - len(leaves) <= 1:
                others = kids - leaves
                ordered = [c for c in block_members(self.vt, self.bottom[u]) if c in leaves]
                plans.append((u, ordered, next(iter(others)) if others else -1))
        for plan in plans:
            self.rake(*plan, rakes)
        self.send_levels(flags, top_first=True)
        self.send_round(coin_sends)
        self.send_round(compress_sends)
        self.send_levels(flags2, top_first=True)
        self.send_levels(rakes, top_first=False)
        self.sim.note_words_many(self.pos, STATE_WORDS)
        return before - self.active_count

    def contract(self):
        limit = 64 * max(1, math.ceil(math.log2(max(2, self.t.n)))) + 64
        while self.active_count > 1:
            self.compact_round()
            if self.rounds > limit:
                raise RuntimeError("contraction failed to make progress")

    def undo(self, u, mode, sends):
        """Undo u's top contraction, filing its messages in ``sends``: wake,
        reduce and second wake levels, then the u-to-v and v-to-u rounds."""
        op, member, tau = self.lc[u]
        if op == OP_COMPRESS:
            v = member
            sends["uv"].append((u, v))
            sends["vu"].append((v, u))
            if mode == BOTTOM_UP:
                self.A[v] = self.A[u]
                self.A[u] += self.P[v]
            else:
                self.A[v] = self.A[u] + self.S[u] - self.S[v]
            self.P[u] -= self.P[v]
            self.S[u] -= self.S[v]
            self.children[v] = self.children[u]
            for w in self.children[v]:
                self.svparent[w] = v
            self.children[u] = {v}
            self.svparent[v] = u
            self.bottom[v] = self.bottom[u]
            self.bottom[u] = self.t.parent[v]
            self.active[v] = True
            self.active_count += 1
            self.op_tag[v] = OP_NONE
            self.lc[u] = self.saved[v]
            self.saved[v] = None
            return [v]
        if op == OP_RAKE:
            bot = self.bottom[u]
            self.broadcast(u, bot, sends["wake"])
            raked = [c for c in block_members(self.vt, bot)
                     if not self.active[c] and self.op_tag[c] == OP_RAKE
                     and self.iter_tag[c] == tau]
            self.reduce(bot, u, sends["reduce"])
            total = sum(self.P[c] for c in raked)
            if mode == BOTTOM_UP:
                for c in raked:
                    self.A[c] = 0
                self.A[u] += total
            else:
                base = self.A[u] + self.S[u]
                self.broadcast(u, bot, sends["wake2"])
                for c in raked:
                    self.A[c] = base
            self.P[u] -= total
            for c in raked:
                self.active[c] = True
                self.children[u].add(c)
                self.svparent[c] = u
                self.op_tag[c] = OP_NONE
            self.active_count += len(raked)
            self.lc[u] = self.saved[raked[0]]
            self.saved[raked[0]] = None
            return raked
        raise RuntimeError(f"nothing to undo at {u}")

    def tagged(self, u, tau):
        op, _, tag = self.lc[u]
        return self.active[u] and op != OP_NONE and tag == tau

    def undo_round(self, tau, mode):
        sends = {"wake": {}, "reduce": {}, "wake2": {}, "uv": [], "vu": []}
        work = [u for u in range(self.t.n) if self.tagged(u, tau)]
        while work:
            nxt = []
            for u in work:
                while self.tagged(u, tau):
                    nxt.extend(x for x in self.undo(u, mode, sends) if self.tagged(x, tau))
            work = nxt
        self.send_levels(sends["wake"], top_first=True)
        self.send_levels(sends["reduce"], top_first=False)
        self.send_levels(sends["wake2"], top_first=True)
        self.send_round(sends["uv"])
        self.send_round(sends["vu"])

    def uncontract(self, mode):
        for tau in range(self.rounds, 0, -1):
            self.undo_round(tau, mode)

    def sums(self):
        out = list(map(operator.add, self.P, self.A))
        return np.array(out) if self.array_out else out

    def structure_signature(self):
        return tuple((v, self.svparent[v], self.bottom[v], self.P[v],
                      tuple(sorted(self.children[v])))
                     for v in range(self.t.n) if self.active[v])


def relabelled(kind, n, seed):
    t = gen_tree(kind, n, seed=seed)
    perm = np.random.default_rng(seed).permutation(t.n).tolist()
    parent = [-1] * t.n
    for v, p in enumerate(t.parent):
        parent[perm[v]] = perm[p] if p >= 0 else -1
    return RootedTree(parent)


def costs(sim):
    return sim.energy, sim.depth, sim.messages, sim.rounds, sorted(sim.events)


def run_both(monkeypatch, t, fn):
    """fn(sim, layout) under the array engine, then under the reference."""
    lay = light_first_layout(t, CurveKind.HILBERT)
    got_sim = SimState(lay.placement(), trace=True)
    got = fn(got_sim, lay)
    with monkeypatch.context() as m:
        m.setattr(treefix, "ContractionEngine", ReferenceEngine)
        want_sim = SimState(lay.placement(), trace=True)
        want = fn(want_sim, lay)
    return got, costs(got_sim), want, costs(want_sim)


def check_child_bookkeeping(eng):
    """Each live supervertex's child count and id sum describe the live
    vertices naming it as their supervertex parent."""
    live = np.flatnonzero(eng.active)
    par = eng.svparent[live]
    kids = live[par >= 0]
    count = np.bincount(par[par >= 0], minlength=len(eng.active))
    total = np.bincount(par[par >= 0], weights=kids, minlength=len(eng.active))
    assert (eng.child_count[live] == count[live]).all()
    assert (eng.child_sum[live] == total[live]).all()


def stepwise(t, values, seed, mode):
    """Contract and uncontract under both engines round by round, checking
    the live forests agree after every round; returns both sims."""
    lay = light_first_layout(t, CurveKind.HILBERT)
    got_sim = SimState(lay.placement(), trace=True)
    want_sim = SimState(lay.placement(), trace=True)
    got = treefix.ContractionEngine(got_sim, t, lay, values, seed)
    want = ReferenceEngine(want_sim, t, lay, values, seed)
    assert structure_signature(got) == want.structure_signature()
    while want.active_count > 1:
        assert got.compact_round() == want.compact_round()
        assert structure_signature(got) == want.structure_signature()
        check_child_bookkeeping(got)
    assert got.active_count == 1
    for tau in range(want.rounds, 0, -1):
        got.undo_round(tau, mode)
        want.undo_round(tau, mode)
        assert structure_signature(got) == want.structure_signature()
        check_child_bookkeeping(got)
    assert got.sums() == want.sums()
    assert list(got_sim.events) == list(want_sim.events)
    return got_sim, want_sim


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("seed", [1, 7])
def test_relabelled_trees_charge_like_scalar_sends(monkeypatch, kind, seed):
    t = relabelled(kind, 127 if kind == "perfect-binary" else 150, seed)
    assert any(p > v for v, p in enumerate(t.parent))
    values = np.random.default_rng(seed + 1).integers(-9, 10, t.n).tolist()
    queries = _random_queries(t, t.n, seed)
    cases = [
        (lambda s, lay: treefix.treefix_sum(s, t, lay, values, seed),
         subtree_sums(t, values)),
        (lambda s, lay: treefix.treefix_topdown(s, t, lay, values, seed),
         root_path_sums(t, values)),
        (lambda s, lay: batched_lca(s, t, lay, queries, seed),
         [lca_naive(t, u, v) for u, v in queries]),
    ]
    for fn, oracle in cases:
        got, got_costs, want, want_costs = run_both(monkeypatch, t, fn)
        assert got == want == oracle
        assert got_costs == want_costs


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("mode", ["bottom-up", "top-down"])
def test_every_round_matches_reference_engine(kind, relabel, mode):
    n = 127 if kind == "perfect-binary" else 150
    t = relabelled(kind, n, 3) if relabel else gen_tree(kind, n, seed=3)
    values = np.random.default_rng(4).integers(-9, 10, t.n).tolist()
    got_sim, want_sim = stepwise(t, values, 5, mode)
    assert costs(got_sim) == costs(want_sim)


@pytest.mark.parametrize("kind", ["star", "caterpillar"])
def test_wide_steps_match_reference_engine(kind):
    # the star's one child block relays over a dozen levels; the
    # caterpillar's first round rakes thousands of spine vertices at once
    t = relabelled(kind, 5000, 2)
    values = np.random.default_rng(2).integers(-9, 10, t.n).tolist()
    for mode in ("bottom-up", "top-down"):
        got_sim, want_sim = stepwise(t, values, 2, mode)
        assert costs(got_sim) == costs(want_sim)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("seed", [1, 7])
def test_relabelling_keeps_depth_within_half_again(kind, seed):
    # the rounds follow relay levels, not vertex ids, but coins are drawn in
    # id order, so a relabelled tree contracts differently: equal depth is
    # not expected, only depth of the same size
    n = 1023 if kind == "perfect-binary" else 1000
    for fn in (treefix.treefix_sum, treefix.treefix_topdown):
        depths = []
        for t in (gen_tree(kind, n, seed=seed), relabelled(kind, n, seed)):
            lay = light_first_layout(t)
            sim = SimState(lay.placement())
            fn(sim, t, lay, [1] * n, seed)
            depths.append(sim.depth)
        assert max(depths) <= 1.5 * min(depths), (fn.__name__, depths)
