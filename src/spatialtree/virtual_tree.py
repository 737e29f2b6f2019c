"""Bounded-degree virtual trees and the local messaging kernels.

A vertex with many children cannot hold references to all of them in O(1)
memory.  The transform reorganizes each child block into "current" children
(kept by the parent) and "appended" children (handed to siblings), halving
block sizes so every vertex ends up with at most two of each.  Vertex
positions never change.  Messages then flow parent -> current children
immediately, and are relayed to appended children only after the relaying
vertex has itself received, giving O(n) energy and O(log n) depth on
light-first layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .layout import Layout
from .sim import SimState
from .trees import RootedTree, bfs_order, light_first_children


@dataclass
class VirtualTree:
    cur: list[list[int]]     # C(v): at most 2 after transform
    app: list[list[int]]     # A(v): at most 2
    vparent: list[int]       # parent in the virtual tree, -1 at the root
    root: int

    def order(self) -> list[int]:
        """Top-down order over cur+app links."""
        out = [self.root]
        head = 0
        while head < len(out):
            v = out[head]
            head += 1
            out.extend(self.cur[v])
            out.extend(self.app[v])
        return out


def _split_block(block: list[int]):
    """Kept pair plus sub-block assignments for one halving step."""
    m = len(block)
    if m <= 1:
        return list(block), []
    h = m // 2
    return [block[0], block[h]], [(block[0], block[1:h]), (block[h], block[h + 1:])]


def transform(t: RootedTree, sizes) -> VirtualTree:
    """Direct (global-view) construction of the virtual tree.

    Children must be processed in light-first order so the result stays in
    light-first order; positions are untouched.
    """
    n = t.n
    sc = light_first_children(t, sizes)
    cur: list[list[int]] = [[] for _ in range(n)]
    app: list[list[int]] = [[] for _ in range(n)]
    vparent = [-1] * n
    for v in range(n):
        kept, subs = _split_block(sc[v])
        cur[v] = kept
        for c in kept:
            vparent[c] = v
        stack = list(subs)
        while stack:
            owner, block = stack.pop()
            if not block:
                continue
            bkept, bsubs = _split_block(block)
            app[owner] = bkept
            for x in bkept:
                vparent[x] = owner
            stack.extend(bsubs)
    return VirtualTree(cur, app, vparent, t.root)


def build_refs_protocol(sim: SimState, t: RootedTree, sizes,
                        layout: Layout) -> VirtualTree:
    """Reconstruct the virtual tree via the bottom-up reference-passing
    protocol, charging its messages, and check it against the direct
    construction.

    Each vertex starts knowing only its sibling index, its parent's degree,
    and references to parent and adjacent siblings.  A vertex's first
    appended child is its right sibling; the second is learned from the
    first child's report of the sibling just past its finished subtree.
    """
    n = t.n
    pos = layout.pos
    sc = light_first_children(t, sizes)
    cur: list[list[int]] = [[] for _ in range(n)]
    app: list[list[int]] = [[] for _ in range(n)]
    vparent = [-1] * n

    for v in bfs_order(t):
        cs = sc[v]
        d = len(cs)
        if d == 0:
            continue
        kept, subs = _split_block(cs)
        cur[v] = kept
        for c in kept:
            vparent[c] = v
            sim.send(pos[c], pos[v])  # child announces its reference

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
            sim.send(pos[y], pos[x])  # y reports the sibling past its subtree
            if after_y >= hi:
                return after_y
            z = cs[after_y]
            app[x].append(z)
            sim.send(pos[x], pos[z])  # request: z also learns its virtual parent
            vparent[z] = x
            after_z = finish(z, after_y + 1, hi)
            sim.send(pos[z], pos[x])  # response with the ref past z's subtree
            return after_z

        for owner, block in subs:
            if block:
                lo = cs.index(block[0])
                end = finish(owner, lo, lo + len(block))
                if end != lo + len(block):
                    raise RuntimeError("reference protocol drifted off its block")

    direct = transform(t, sizes)
    if (cur, app, vparent) != (direct.cur, direct.app, direct.vparent):
        raise RuntimeError("reference protocol disagrees with direct transform")
    return VirtualTree(cur, app, vparent, t.root)


def local_broadcast(sim: SimState, vt: VirtualTree, layout: Layout, values) -> list:
    """Every vertex sends one message to all its original children.

    Current children are served directly; appended children receive the
    relayed copy after the relaying sibling has itself received, so every
    vertex ends up with its original parent's value.
    """
    pos = layout.pos
    n = len(values)
    delivered = [None] * n
    pairs = []
    for v in range(n):
        for c in vt.cur[v]:
            pairs.append((pos[v], pos[c]))
            delivered[c] = values[v]
    sim.send_batch(pairs)  # one round: every vertex fires its own value
    for v in vt.order():
        if vt.app[v]:
            got = delivered[v]
            for a in vt.app[v]:
                sim.send(pos[v], pos[a])
                delivered[a] = got
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
    order = list(vt.cur[parent_vertex])
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        order.extend(vt.app[x])
    return order
