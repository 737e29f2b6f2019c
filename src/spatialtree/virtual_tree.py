"""Bounded-degree virtual trees and the local messaging kernels.

A vertex with many children cannot hold references to all of them in O(1)
memory.  The transform reorganizes each child block into "current" children
(kept by the parent) and "appended" children (handed to siblings), halving
block sizes so every vertex ends up with at most two of each.  Vertex
positions never change.  Messages then flow parent -> current children
immediately, and are relayed to appended children only after the relaying
vertex has itself received, giving O(n) energy and O(log n) depth on
light-first layouts.

The virtual tree is one block CSR over the light-first child CSR
(``trees.light_first_csr``): every child block's relay order plus each
vertex's virtual parent.  The halving and the reference-passing protocol are
both positional, so :func:`transform` and :func:`build_refs_protocol` work
out one pattern per distinct block length and apply it to every block of
that length with numpy gathers; the local kernels run level by level.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .layout import Layout
from .sim import ORDERED_CHUNK, SimState
from .trees import RootedTree, bfs_order, light_first_csr

# modeled per-vertex words of the local kernels: value, partial, result,
# virtual parent, two current and two appended children
RELAY_WORDS = 8
# ... and of the refs protocol: sibling index, parent degree, parent and two
# siblings, virtual parent, C(v), A(v) and the ref past a finished subtree
REFS_WORDS = 11


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
    """The virtual tree as one block CSR: ``blocks`` holds every child
    block's relay order, ``vparent`` each vertex's virtual parent (C ints,
    -1 at the root) and ``root`` the root.  The current children C(v), at
    most two, open block v with src -1; the appended children A(x), at most
    two, are the entries whose src is x, in relay order.
    """

    blocks: BlockOrder
    vparent: array
    root: int

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


def _split_block(block: list[int]):
    """Kept pair plus sub-block assignments for one halving step."""
    m = len(block)
    if m <= 1:
        return list(block), []
    h = m // 2
    return [block[0], block[h]], [(block[0], block[1:h]), (block[h], block[h + 1:])]


@lru_cache(maxsize=512)
def _relay_pattern(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Relay order of any block of m children, by place in the block: the
    place each step reaches and the place relaying to it (-1 for the
    broadcaster); the kept pair first, then appended links breadth-first.
    It depends on m alone, so it is worked out once per length and returned
    as two read-only int arrays."""
    places, subs = _split_block(list(range(m)))
    relays = [-1] * len(places)
    owned = dict(subs)  # the sub-block each place relays into
    for x in places:  # the list grows while it is walked: breadth-first
        got, more = _split_block(owned.pop(x, []))
        places.extend(got)
        relays.extend([x] * len(got))
        owned.update(more)
    pattern = np.array(places, dtype=np.intc), np.array(relays, dtype=np.intc)
    for a in pattern:
        a.flags.writeable = False
    return pattern


def _block_links(ptr: np.ndarray, kids: np.ndarray, pattern: Callable):
    """Every block's relay order (src, dst) and every vertex's virtual
    parent, as int64 arrays, applying the (places, relays) that pattern(m)
    gives to every block of m children with numpy gathers."""
    n = len(ptr) - 1
    deg = np.diff(ptr)
    place = np.empty(n - 1, dtype=np.int64)  # CSR slot each relay step reaches
    relay = np.empty(n - 1, dtype=np.int64)  # CSR slot relaying to it, or -1
    for m in np.unique(deg[deg > 0]).tolist():
        places, relays = map(np.asarray, pattern(m))
        base = ptr[:-1][deg == m, None]
        place[base + np.arange(m)] = base + places
        relay[base + np.arange(m)] = np.where(relays < 0, -1, base + relays)
    dst = kids[place]
    src = np.where(relay < 0, -1, kids[relay])
    vparent = np.full(n, -1, dtype=np.int64)
    vparent[dst] = np.where(src < 0, np.repeat(np.arange(n), deg), src)
    return src, dst, vparent


def _from_csr(ptr: np.ndarray, kids: np.ndarray, root: int) -> VirtualTree:
    """The virtual tree of a light-first child CSR: each block of m
    children follows the relay pattern of length m."""
    ptr, src, dst, vparent = (array("i", a.astype(np.intc).tobytes())
                              for a in (ptr, *_block_links(ptr, kids, _relay_pattern)))
    return VirtualTree(BlockOrder(ptr, src, dst), vparent, root)


def transform(t: RootedTree, sizes) -> VirtualTree:
    """Direct (global-view) construction of the virtual tree.

    Blocks are taken in light-first order so the result stays in light-first
    order; positions are untouched.
    """
    return _from_csr(*light_first_csr(t, sizes), t.root)


def _protocol_pattern(m: int):
    """The reference-passing protocol inside any block of m children, by
    place: its messages in send order as (src, dst) pairs, -1 for the
    parent, and the relay order its links give, like :func:`_relay_pattern`.

    A place starts knowing only its sibling index, the block length and
    references to its parent and adjacent siblings.  Its first appended
    child is its right sibling; the second is learned from the first child's
    report of the sibling just past its finished subtree.
    """
    kept, subs = _split_block(list(range(m)))
    msgs = [(c, -1) for c in kept]  # each kept child announces its reference
    app = [[] for _ in range(m)]

    # finish(x over places lo..hi-1): bottom-up; returns the place just past
    # x's appended subtree ("the right sibling of the rightmost descendant")
    def finish(x: int, lo: int, hi: int) -> int:
        if lo >= hi:
            return hi  # leaf of the appended structure: right sibling is local
        y = lo  # y's owner is its left sibling; known locally
        app[x].append(y)
        after_y = finish(y, lo + 1, lo + max(1, (hi - lo) // 2))
        msgs.append((y, x))  # y reports the sibling past its subtree
        if after_y >= hi:
            return after_y
        z = after_y
        app[x].append(z)
        msgs.append((x, z))  # request: z also learns its virtual parent
        after_z = finish(z, z + 1, hi)
        msgs.append((z, x))  # response with the place past z's subtree
        return after_z

    for owner, block in subs:
        if block and finish(owner, block[0], block[-1] + 1) != block[-1] + 1:
            raise RuntimeError("reference protocol drifted off its block")
    places, relays = list(kept), [-1] * len(kept)
    for x in places:  # the list grows while it is walked: breadth-first
        places.extend(app[x])
        relays.extend([x] * len(app[x]))
    return msgs, (places, relays)


def build_refs_protocol(sim: SimState, t: RootedTree, sizes,
                        layout: Layout) -> VirtualTree:
    """Reconstruct the virtual tree via the bottom-up reference-passing
    protocol, charging its messages, and check it against the direct
    construction from the same light-first CSR, which it returns.

    It runs once per distinct block length (:func:`_protocol_pattern`); its
    messages are charged block after block, parents in BFS order, as one
    ``send`` each, and its links are checked entry by entry against the
    direct tree's ``blocks`` and ``vparent``.
    """
    ptr, kids = light_first_csr(t, sizes)
    deg = np.diff(ptr)
    pos = np.asarray(layout.pos, dtype=np.intc)
    patterns = {m: _protocol_pattern(m) for m in np.unique(deg[deg > 0]).tolist()}
    count = np.zeros(t.n, dtype=np.int64)  # messages of each block
    for m, (msgs, _) in patterns.items():
        count[deg == m] = len(msgs)
    bfs = np.asarray(bfs_order(t), dtype=np.int64)
    start = np.empty(t.n, dtype=np.int64)
    start[bfs] = np.add.accumulate(count[bfs]) - count[bfs]
    queue = np.empty((int(count.sum()), 2), dtype=np.intc)  # (src, dst) positions
    for m, (msgs, _) in patterns.items():
        parents = np.flatnonzero(deg == m)
        # each block's vertices by place + 1: place -1 is the parent
        members = np.column_stack((parents, kids[ptr[parents, None] + np.arange(m)]))
        queue[start[parents, None] + np.arange(len(msgs))] = \
            pos[members[:, np.array(msgs) + 1]]
    for lo in range(0, len(queue), ORDERED_CHUNK):
        chunk = queue[lo:lo + ORDERED_CHUNK]
        sim.send_ordered(chunk[:, 0], chunk[:, 1])
    sim.note_words_many(pos, REFS_WORDS)

    got = (ptr, *_block_links(ptr, kids, lambda m: patterns[m][1]))
    direct = _from_csr(ptr, kids, t.root)
    want = (*direct.blocks, direct.vparent)
    if not all(np.array_equal(a, np.frombuffer(b, dtype=np.intc)) for a, b in zip(got, want)):
        raise RuntimeError("reference protocol disagrees with direct transform")
    return direct


def _relay_levels(relay: np.ndarray, child: np.ndarray, n: int) -> list[np.ndarray]:
    """The CSR slots of each level of the relay links, top first: level 0
    holds every block's current children, level j + 1 the appended children
    of level j's vertices."""
    step = relay < 0
    got = np.zeros(n, dtype=bool)
    levels = []
    while step.any():
        levels.append(np.flatnonzero(step))
        got[child[step]] = True
        step = (relay >= 0) & got[relay] & ~got[child]
    return levels


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
    vparent = np.frombuffer(vt.vparent, dtype=np.intc)
    n = len(values)
    sim.send_rounds([(pos[vparent[child[k]]], pos[child[k]])
                     for k in _relay_levels(relay, child, n)])
    sim.note_words_many(pos, RELAY_WORDS)
    delivered = np.full(n, None, dtype=object)
    delivered[child] = np.fromiter(values, object, n)[np.repeat(np.arange(n), np.diff(ptr))]
    return delivered.tolist()


def local_reduce(sim: SimState, vt: VirtualTree, layout: Layout, values,
                 op: Callable, identity) -> list:
    """Every vertex receives the op-fold of its original children's values.

    Appended subtrees fold bottom-up into their owning sibling, one level at
    a time; each current child then delivers its combined block to the
    parent.  op must be associative and commutative.  A vertex's partial
    departs once its appended receipts are in, not waiting for the sibling
    deliveries folded into its own result, so all n - 1 messages are
    charged with one ``send_at``.
    """
    pos = np.asarray(layout.pos, dtype=np.int64)
    _, relay, child = (np.frombuffer(a, dtype=np.intc) for a in vt.blocks)
    vparent = np.frombuffer(vt.vparent, dtype=np.intc)
    n = len(values)
    fold = np.frompyfunc(op, 2, 1)
    up = np.fromiter(values, dtype=object, count=n)
    result = np.empty(n, dtype=object)
    result.fill(identity)
    ready = sim.clock[pos]
    levels = _relay_levels(relay, child, n)
    for j in reversed(range(len(levels))):
        a = child[levels[j]]
        x = vparent[a]
        if j:
            np.maximum.at(ready, x, ready[a] + 1)
        fold.at(up if j else result, x, up[a])  # in slot order, like one at a time
    sim.send_at(pos[child], pos[vparent[child]], ready[child])
    sim.note_words_many(pos, RELAY_WORDS)
    return result.tolist()


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
    relaying through the block in ``reduce_slots`` order, delivering the
    result to dst_pos."""
    b = vt.blocks
    lo, hi = b.ptr[parent_vertex], b.ptr[parent_vertex + 1]
    up = {c: contribution(c) for c in b.dst[lo:hi]}
    up[-1] = identity  # relay -1 is dst_pos: it folds the current children
    for k in vt.reduce_slots[lo:hi]:
        x, c = b.src[k], b.dst[k]
        sim.send(pos[c], dst_pos if x < 0 else pos[x])
        up[x] = op(up[x], up[c])
    return up[-1]
