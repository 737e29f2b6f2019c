"""Exact costs on trees whose vertex ids do not follow parent < child.

Every generator numbers parents before their children, so within one
compact round the flag broadcasts and parent-coin sends, which go out in
vertex-id order, always reach a vertex before it sends.  Relabelling a
generated tree with a random permutation breaks that order.  The wave
charging in ``ContractionEngine``, and its queue of compress, rake and undo
messages, must still match a reference engine that sends every message one
``sim.send`` at a time, the block ones through ``block_broadcast`` and
``block_reduce``.
"""

import operator

import numpy as np
import pytest

from spatialtree import treefix
from spatialtree.cli import _random_queries
from spatialtree.curves import CurveKind
from spatialtree.layout import light_first_layout
from spatialtree.lca import batched_lca
from spatialtree.sim import SimState
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, gen_tree, lca_naive,
                               root_path_sums, subtree_sums)
from spatialtree.virtual_tree import block_broadcast, block_reduce


def scalar_block_broadcast(sim, vt, pos, src_pos, parent_vertex):
    """One word to every child of parent_vertex: current children first,
    then the appended links breadth-first, one send each."""
    order = []
    for c in vt.cur[parent_vertex]:
        sim.send(src_pos, pos[c])
        order.append(c)
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for a in vt.app[x]:
            sim.send(pos[x], pos[a])
            order.append(a)


class ScalarSendEngine(treefix.ContractionEngine):
    """Sends every message with its own ``sim.send`` the moment the engine
    would queue it, so the queue stays empty."""

    def _flag_broadcasts(self, us):
        for u in us:
            if self.active[u] and self.children[u]:
                scalar_block_broadcast(self.sim, self.vt, self.pos, self.pos[u],
                                       self.bottom[u])

    def _parent_coins(self, us, kids):
        # called at the start of a synchronous round: every live
        # non-branching supervertex, in id order
        for u in range(self.t.n):
            if self.active[u] and len(self.children[u]) == 1:
                self.sim.send(self.pos[u], self.pos[next(iter(self.children[u]))])

    def _queue_send(self, src, dst):
        self.sim.send(self.pos[src], self.pos[dst])

    def _queue_broadcast(self, u, parent_vertex):
        block_broadcast(self.sim, self.vt, self.pos, self.pos[u], parent_vertex)

    def _queue_reduce(self, parent_vertex, u):
        block_reduce(self.sim, self.vt, self.pos, parent_vertex, self.pos[u],
                     lambda c: 0, operator.add, 0)


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
    """fn(sim, layout) under the wave engine, then under the reference."""
    lay = light_first_layout(t, CurveKind.HILBERT)
    got_sim = SimState(lay.placement(), trace=True)
    got = fn(got_sim, lay)
    with monkeypatch.context() as m:
        m.setattr(treefix, "ContractionEngine", ScalarSendEngine)
        want_sim = SimState(lay.placement(), trace=True)
        want = fn(want_sim, lay)
    return got, costs(got_sim), want, costs(want_sim)


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
