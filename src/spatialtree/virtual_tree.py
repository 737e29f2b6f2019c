"""Bounded-degree virtual trees and the local messaging kernels.

A vertex with many children cannot hold references to all of them in O(1)
memory.  The transform reorganizes each child block into "current" children
(kept by the parent) and "appended" children (handed to siblings), halving
block sizes so every vertex ends up with at most two of each.  Vertex
positions never change.  Messages then flow parent -> current children
immediately, and are relayed to appended children only after the relaying
vertex has itself received, giving O(n) energy and O(log n) depth on
light-first layouts.

Blocks come from the one light-first child CSR (``trees.light_first_csr``).
The halving is positional, so :func:`transform` computes one relay pattern
per distinct block length and applies it to every block of that length with
numpy gathers; the per-vertex ``cur``/``app`` lists are views derived from
the resulting block CSR.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .layout import Layout
from .sim import ORDERED_CHUNK, SimState
from .trees import RootedTree, bfs_order, light_first_csr


class BlockOrder(NamedTuple):
    """Relay order of every child block, as CSR arrays of C ints.

    Block v (the original children of v) is entries ptr[v]..ptr[v+1]-1:
    dst[k] is the child reached by relay step k and src[k] the vertex that
    relays to it, or -1 for the broadcaster itself.  Current children come
    first, then the appended links breadth-first.  The arrays slice cheaply
    from Python, and ``np.frombuffer(a, np.intc)`` views them without a copy.
    """

    ptr: array
    src: array
    dst: array


@dataclass
class VirtualTree:
    """Every child block's relay order, each vertex's virtual parent (C ints,
    -1 at the root) and the root.  ``cur`` (C(v), at most 2 current children),
    ``app`` (A(v), at most 2 appended children) and :meth:`order` are
    read-only views derived from ``blocks`` on first use.
    """

    blocks: BlockOrder
    vparent: array
    root: int

    @cached_property
    def cur(self) -> list[list[int]]:
        """C(v): the one or two children that open block v."""
        ptr, dst = self.blocks.ptr.tolist(), self.blocks.dst.tolist()
        return [dst[lo:min(lo + 2, hi)] for lo, hi in zip(ptr, ptr[1:])]

    @cached_property
    def app(self) -> list[list[int]]:
        """A(v): the children v relays to, in relay order."""
        app = [[] for _ in self.vparent]
        for x, c in zip(self.blocks.src, self.blocks.dst):
            if x >= 0:
                app[x].append(c)
        return app

    @cached_property
    def reduce_slots(self) -> array:
        """The CSR slots of every child block in :func:`block_reduce`'s send
        order: appended links grouped by relay, relays taken last to first,
        then the current children.  Slot k sends from its child to its relay,
        or to the reduce's destination when the relay is -1."""
        ptr, src, dst = (np.frombuffer(a, dtype=np.intc) for a in self.blocks)
        slot = np.arange(len(dst), dtype=np.intc)
        slot_of = np.zeros(len(self.vparent), dtype=np.intc)
        slot_of[dst] = slot
        group = np.where(src >= 0, -slot_of[src], 1)
        block = np.repeat(np.arange(len(ptr) - 1, dtype=np.intc), np.diff(ptr))
        return array("i", np.lexsort((slot, group, block)).astype(np.intc).tobytes())

    def order(self) -> list[int]:
        """Top-down order over cur+app links."""
        cur, app = self.cur, self.app
        out = [self.root]
        for v in out:  # the list grows while it is walked: breadth-first
            out.extend(cur[v])
            out.extend(app[v])
        return out


def _split_block(block: list[int]):
    """Kept pair plus sub-block assignments for one halving step."""
    m = len(block)
    if m <= 1:
        return list(block), []
    h = m // 2
    return [block[0], block[h]], [(block[0], block[1:h]), (block[h], block[h + 1:])]


def _relay_pattern(m: int) -> tuple[list[int], list[int]]:
    """Relay order of any block of m children, by place in the block: the
    place each step reaches and the place relaying to it (-1 for the
    broadcaster); the kept pair first, then appended links breadth-first."""
    places, subs = _split_block(list(range(m)))
    relays = [-1] * len(places)
    owned = dict(subs)  # the sub-block each place relays into
    for x in places:  # the list grows while it is walked: breadth-first
        got, more = _split_block(owned.pop(x, []))
        places.extend(got)
        relays.extend([x] * len(got))
        owned.update(more)
    return places, relays


def _from_csr(ptr: np.ndarray, kids: np.ndarray, root: int) -> VirtualTree:
    """The virtual tree of a light-first child CSR: each block of m
    children follows the relay pattern of length m."""
    n = len(ptr) - 1
    deg = np.diff(ptr)
    place = np.empty(n - 1, dtype=np.int64)  # CSR slot each relay step reaches
    relay = np.empty(n - 1, dtype=np.int64)  # CSR slot relaying to it, or -1
    for m in np.unique(deg[deg > 0]).tolist():
        places, relays = map(np.array, _relay_pattern(m))
        base = ptr[:-1][deg == m, None]
        place[base + np.arange(m)] = base + places
        relay[base + np.arange(m)] = np.where(relays < 0, -1, base + relays)
    dst = kids[place]
    src = np.where(relay < 0, -1, kids[relay])
    vparent = np.full(n, -1, dtype=np.int64)
    vparent[dst] = np.where(src < 0, np.repeat(np.arange(n), deg), src)
    ptr, src, dst, vparent = (array("i", a.astype(np.intc).tobytes())
                              for a in (ptr, src, dst, vparent))
    return VirtualTree(BlockOrder(ptr, src, dst), vparent, root)


def transform(t: RootedTree, sizes) -> VirtualTree:
    """Direct (global-view) construction of the virtual tree.

    Blocks are taken in light-first order so the result stays in light-first
    order; positions are untouched.
    """
    return _from_csr(*light_first_csr(t, sizes), t.root)


def build_refs_protocol(sim: SimState, t: RootedTree, sizes,
                        layout: Layout) -> VirtualTree:
    """Reconstruct the virtual tree via the bottom-up reference-passing
    protocol, charging its messages, and check it against the direct
    construction from the same light-first CSR, which it returns.

    Each vertex starts knowing only its sibling index, its parent's degree,
    and references to parent and adjacent siblings.  A vertex's first
    appended child is its right sibling; the second is learned from the
    first child's report of the sibling just past its finished subtree.
    """
    n = t.n
    pos = layout.pos
    ptr, kids = light_first_csr(t, sizes)
    starts, kids_list = ptr.tolist(), kids.tolist()
    cur: list[list[int]] = [[] for _ in range(n)]
    app: list[list[int]] = [[] for _ in range(n)]
    vparent = [-1] * n
    # the protocol's messages, queued in the order it sends them and
    # charged in batches; nothing it decides depends on their cost
    qsrc = array("i")
    qdst = array("i")

    def charge() -> None:
        sim.send_ordered(np.frombuffer(qsrc, dtype=np.intc),
                         np.frombuffer(qdst, dtype=np.intc))
        del qsrc[:], qdst[:]

    def send(src_pos: int, dst_pos: int) -> None:
        qsrc.append(src_pos)
        qdst.append(dst_pos)
        if len(qsrc) >= ORDERED_CHUNK:
            charge()

    for v in bfs_order(t):
        cs = kids_list[starts[v]:starts[v + 1]]
        if not cs:
            continue
        kept, subs = _split_block(cs)
        cur[v] = kept
        for c in kept:
            vparent[c] = v
            send(pos[c], pos[v])  # child announces its reference

        # finish(x over cs[lo:hi]): bottom-up; returns the cs-index just past
        # x's appended subtree ("the right sibling of the rightmost descendant")
        def finish(x: int, lo: int, hi: int) -> int:
            if lo >= hi:
                return hi  # leaf of the appended structure: right sibling is local
            y = cs[lo]
            app[x].append(y)
            vparent[y] = x  # y's owner is its left sibling; known locally
            m = hi - lo
            mid = lo + (m // 2 if m >= 2 else 1)
            after_y = finish(y, lo + 1, mid)
            send(pos[y], pos[x])  # y reports the sibling past its subtree
            if after_y >= hi:
                return after_y
            z = cs[after_y]
            app[x].append(z)
            send(pos[x], pos[z])  # request: z also learns its virtual parent
            vparent[z] = x
            after_z = finish(z, after_y + 1, hi)
            send(pos[z], pos[x])  # response with the ref past z's subtree
            return after_z

        for owner, block in subs:
            if block:
                lo = cs.index(block[0])
                end = finish(owner, lo, lo + len(block))
                if end != lo + len(block):
                    raise RuntimeError("reference protocol drifted off its block")

    charge()
    direct = _from_csr(ptr, kids, t.root)
    if (cur, app, vparent) != (direct.cur, direct.app, direct.vparent.tolist()):
        raise RuntimeError("reference protocol disagrees with direct transform")
    del direct.cur, direct.app  # drop the views; the blocks hold the same links
    return direct


def local_broadcast(sim: SimState, vt: VirtualTree, layout: Layout, values) -> list:
    """Every vertex sends one message to all its original children.

    Current children are served directly; appended children receive the
    relayed copy after the relaying sibling has itself received, so every
    vertex ends up with its original parent's value.  The direct sends are
    one round, and the relays one round per level of the appended links:
    every vertex receives once, before it relays, so the level rounds charge
    what relaying one message at a time would.
    """
    pos = np.asarray(layout.pos, dtype=np.int64)
    ptr, relay, child = (np.frombuffer(a, dtype=np.intc) for a in vt.blocks)
    n = len(values)
    parent = np.repeat(np.arange(n), np.diff(ptr))
    sent = relay < 0  # round one: every vertex fires its own value
    rounds = [(pos[parent[sent]], pos[child[sent]])]
    got = np.zeros(n, dtype=bool)
    got[child[sent]] = True
    while True:
        step = ~sent & got[relay]
        if not step.any():
            break
        rounds.append((pos[relay[step]], pos[child[step]]))
        got[child[step]] = True
        sent |= step
    sim.send_rounds(rounds)
    delivered = [None] * n
    for c, v in zip(child.tolist(), parent.tolist()):
        delivered[c] = values[v]
    return delivered


def local_reduce(sim: SimState, vt: VirtualTree, layout: Layout, values,
                 op: Callable, identity) -> list:
    """Every vertex receives the op-fold of its original children's values.

    Appended subtrees fold bottom-up into their owning sibling; each current
    child then delivers its combined block to the parent.  op must be
    associative and commutative.
    """
    pos = layout.pos
    n = len(values)
    up = list(values)
    result = [identity] * n
    # a vertex's outgoing partial depends only on its appended receipts, not
    # on the sibling deliveries folded into its own result
    ready = [sim.clock[pos[x]] for x in range(n)]
    for x in reversed(vt.order()):
        for a in vt.app[x]:
            d = ready[a] + 1
            sim.send_at(pos[a], pos[x], ready[a])
            up[x] = op(up[x], up[a])
            if d > ready[x]:
                ready[x] = d
        acc = identity
        for c in vt.cur[x]:
            sim.send_at(pos[c], pos[x], ready[c])
            acc = op(acc, up[c])
        result[x] = acc
    return result


def block_broadcast(sim: SimState, vt: VirtualTree, pos, src_pos: int,
                    parent_vertex: int) -> list[int]:
    """Deliver one word from src_pos to every original child of
    parent_vertex, relaying through the child block's appended links.
    Returns the children in delivery order."""
    b = vt.blocks
    lo, hi = b.ptr[parent_vertex], b.ptr[parent_vertex + 1]
    order = b.dst[lo:hi].tolist()
    for x, c in zip(b.src[lo:hi], order):
        sim.send(src_pos if x < 0 else pos[x], pos[c])
    return order


def block_reduce(sim: SimState, vt: VirtualTree, pos, parent_vertex: int,
                 dst_pos: int, contribution: Callable[[int], object],
                 op: Callable, identity):
    """Fold contribution(c) over all original children of parent_vertex,
    relaying through the block, delivering the result to dst_pos."""
    order = block_members(vt, parent_vertex)
    up = {x: contribution(x) for x in order}
    for x in reversed(order):
        for a in vt.app[x]:
            sim.send(pos[a], pos[x])
            up[x] = op(up[x], up[a])
    acc = identity
    for c in vt.cur[parent_vertex]:
        sim.send(pos[c], dst_pos)
        acc = op(acc, up[c])
    return acc


def block_members(vt: VirtualTree, parent_vertex: int) -> list[int]:
    """Original children of parent_vertex in block relay order."""
    b = vt.blocks
    return b.dst[b.ptr[parent_vertex]:b.ptr[parent_vertex + 1]].tolist()
