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
(``trees.light_first_csr``): every child block's relay order and levels
plus each vertex's virtual parent.  The halving is positional, so
:func:`_relay_pattern` works it out once per distinct block length, and
both :func:`transform` and the check of :func:`build_refs_protocol` apply it
to every block of that length; the kernels run level by level.

The protocol's departure clocks are walked per block length too, all blocks
of a length stepping through the pattern together: a block's messages all
come from its own children, and a vertex's clock is read only in its
parent's block, so every block starts from the clocks at the call.  The
walk runs in uint64, where no start clock below 2^63 plus a block's
message count can wrap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .layout import Layout
from .sim import SimState
from .trees import RootedTree, _frozen, light_first_csr

# modeled per-vertex words of the local kernels: value, partial, result,
# virtual parent, two current and two appended children
RELAY_WORDS = 8
# ... and of the refs protocol: sibling index, parent degree, parent and two
# siblings, virtual parent, C(v), A(v) and the ref past a finished subtree
REFS_WORDS = 11
# the refs protocol walks the blocks of a length that fewer blocks than this
# share one row at a time in Python ints, and the rest a column per place
COLUMN_WALK_MIN_BLOCKS = 24


class BlockOrder(NamedTuple):
    """Relay order of every child block, as read-only CSR arrays of C ints.

    Block v (the original children of v) is entries ptr[v]..ptr[v+1]-1:
    dst[k] is the child reached by relay step k and src[k] the vertex that
    relays to it, or -1 for the broadcaster itself.  Current children come
    first, then the appended links breadth-first.
    """

    ptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray


@dataclass
class VirtualTree:
    """The virtual tree as one block CSR: ``blocks`` holds every child
    block's relay order, ``vparent`` each vertex's virtual parent (read-only
    C ints, -1 at the root) and ``level`` each slot's relay level (read-only
    int8).  The current children C(v), at most two,
    open block v with src -1 at level 0; the appended children A(x), at most
    two, are the entries whose src is x, in relay order, one level below x.
    """

    blocks: BlockOrder
    vparent: np.ndarray
    level: np.ndarray

    def relay_rounds(self, us, slots, lens) -> list[tuple[np.ndarray, np.ndarray]]:
        """The links of ``slots``, blocks of ``lens`` slots each, as (near,
        far) vertex-id rounds, one per relay level, top first, in slot order:
        far is the child reached and near its relay, or the block's entry of
        ``us`` for a current child.  A broadcast sends near to far round by
        round; a reduce sends far to near, deepest first."""
        level = self.level[slots]
        # a stable sort of int8 keys is a radix sort
        order = np.argsort(level, kind="stable")
        ends = np.add.accumulate(np.bincount(level)).tolist()
        slots = slots[order]
        relay = self.blocks.src[slots]
        near = np.where(relay >= 0, relay, np.repeat(us, lens)[order])
        far = self.blocks.dst[slots]
        return [(near[a:b], far[a:b]) for a, b in zip([0, *ends], ends)]


def _split_block(block: list[int]):
    """Kept pair plus sub-block assignments for one halving step."""
    m = len(block)
    if m <= 1:
        return list(block), []
    h = m // 2
    return [block[0], block[h]], [(block[0], block[1:h]), (block[h], block[h + 1:])]


@lru_cache(maxsize=512)
def _relay_pattern(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relay order of any block of m children, by place in the block: the
    place each step reaches, the place relaying to it (-1 for the
    broadcaster) and the step's relay level; the kept pair first, at level
    0, then appended links breadth-first.  It depends on m alone, so it is
    worked out once per length, as read-only C-int and int8 arrays."""
    places, subs = _split_block(list(range(m)))
    relays = [-1] * len(places)
    levels = [0] * len(places)
    owned = dict(subs)  # the sub-block each place relays into
    for i, x in enumerate(places):  # the lists grow while walked: breadth-first
        got, more = _split_block(owned.pop(x, []))
        places.extend(got)
        relays.extend([x] * len(got))
        levels.extend([levels[i] + 1] * len(got))
        owned.update(more)
    return (_frozen(np.array(places, dtype=np.intc)), _frozen(np.array(relays, dtype=np.intc)),
            _frozen(np.array(levels, dtype=np.int8)))


def _blocks_by_length(deg: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each child-block length m > 0, ascending, with the vertices whose
    block has that length, ascending: one stable sort rather than a scan of
    every vertex per length."""
    order = np.argsort(deg, kind="stable")
    ends = np.flatnonzero(np.diff(deg[order])) + 1
    bounds = [0, *ends.tolist(), len(deg)]
    return [(m, order[a:b]) for a, b in zip(bounds, bounds[1:])
            if (m := int(deg[order[a]])) > 0]


def _from_csr(ptr: np.ndarray, kids: np.ndarray) -> VirtualTree:
    """The virtual tree of a light-first child CSR: each block of m
    children follows the relay pattern of length m, laid over every block
    of that length with numpy gathers."""
    n = len(ptr) - 1
    deg = np.diff(ptr)
    place = np.empty(n - 1, dtype=np.int64)  # CSR slot each relay step reaches
    relay = np.empty(n - 1, dtype=np.int64)  # CSR slot relaying to it, or -1
    level = np.empty(n - 1, dtype=np.int8)
    for m, parents in _blocks_by_length(deg):
        places, relays, levels = _relay_pattern(m)
        base = ptr[parents, None]
        slots = base + np.arange(m)
        place[slots] = base + places
        relay[slots] = np.where(relays < 0, -1, base + relays)
        level[slots] = levels
    dst = kids[place]
    src = np.where(relay < 0, -1, kids[relay])
    vparent = np.full(n, -1, dtype=np.int64)
    vparent[dst] = np.where(src < 0, np.repeat(np.arange(n), deg), src)
    ptr, src, dst, vparent = (_frozen(a.astype(np.intc)) for a in (ptr, src, dst, vparent))
    return VirtualTree(BlockOrder(ptr, src, dst), vparent, _frozen(level))


def transform(t: RootedTree, sizes) -> VirtualTree:
    """Direct (global-view) construction of the virtual tree.

    Blocks are taken in light-first order so the result stays in light-first
    order; positions are untouched.
    """
    return _from_csr(*light_first_csr(t, sizes))


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


def _departures(clock: np.ndarray, msgs) -> np.ndarray:
    """Departure clocks of the protocol messages ``msgs`` (a block pattern's
    (src, dst) places, -1 for the parent) in every block of one length.

    ``clock`` holds the children's uint64 start clocks, a row per block and
    a column per place; the result holds the messages' clocks, a row per
    block.  A message departs at its source's clock, and its destination's
    clock becomes at least one past that.  The parent only receives, so its
    clock is never read.
    """
    rows = len(clock)
    if rows < COLUMN_WALK_MIN_BLOCKS:
        # Python ints, a row at a time; the dummy last slot takes place -1
        out = []
        keep = out.append
        for c in clock.tolist():
            c.append(0)
            for a, b in msgs:
                x = c[a]
                keep(x)
                if x >= c[b]:
                    c[b] = x + 1
        return np.frombuffer(array("Q", out), dtype=np.uint64).reshape(rows, len(msgs))
    # a column per place, each stepping through the pattern for every block
    col = np.ascontiguousarray(clock.T)
    out = np.empty((len(msgs), rows), dtype=np.uint64)
    for j, (a, b) in enumerate(msgs):
        out[j] = col[a]
        if b >= 0:
            np.maximum(col[b], col[a] + 1, out=col[b])
    return out.T


def build_refs_protocol(sim: SimState, t: RootedTree, sizes,
                        layout: Layout) -> VirtualTree:
    """Reconstruct the virtual tree via the bottom-up reference-passing
    protocol, charging its messages, and check it against the direct
    construction from the same light-first CSR, which it returns.

    It runs once per distinct block length (:func:`_protocol_pattern`); its
    messages are queued block after block, parents in BFS order, and
    charged with one ``send_at`` that gives each message the departure
    clock of one ``send`` per message in queue order, so the batch is
    checked whole before any of it is charged.  Its relay order is checked
    per block length against :func:`_relay_pattern`, which the direct tree
    applies to every block of that length: child ids are distinct, so the
    two trees agree exactly when the patterns do.

    Those clocks are worked out for all blocks of one length together
    (:func:`_departures`).  Blocks are independent: every message of block
    p has a child of p as its source, and p itself only receives.  So a
    vertex takes part in two blocks at most, its parent's, where it sends
    and receives, and its own, where its clock is never read; no block
    reads a clock that another block sets, and each block's clocks depend
    only on ``sim.clock`` at the call.  The walk runs in uint64: a start
    clock is at most 2^63 - 1 and a block adds at most its message count,
    so no clock wraps, and ``send_at`` sees the true clock of a message
    past its limit.
    """
    layout.check_size(t.n)
    ptr, kids = light_first_csr(t, sizes)
    deg = np.diff(ptr)
    pos = layout.pos_arr
    groups = _blocks_by_length(deg)
    patterns = {m: _protocol_pattern(m) for m, _ in groups}
    count = np.zeros(t.n, dtype=np.int64)  # messages of each block
    for m, parents in groups:
        count[parents] = len(patterns[m][0])
    start = np.empty(t.n, dtype=np.int64)
    start[t.bfs] = np.add.accumulate(count[t.bfs]) - count[t.bfs]
    total = int(count.sum())
    src = np.empty(total, dtype=np.intp)  # positions, in queue order
    dst = np.empty(total, dtype=np.intp)
    ready = np.empty(total, dtype=np.uint64)
    for m, parents in groups:
        msgs = patterns[m][0]
        # each block's positions by place + 1: place -1 is the parent
        at = pos[np.column_stack((parents, kids[ptr[parents, None] + np.arange(m)]))]
        slots = start[parents, None] + np.arange(len(msgs))
        ends = np.fromiter(chain.from_iterable(msgs), np.intp, 2 * len(msgs)).reshape(-1, 2) + 1
        src[slots] = at[:, ends[:, 0]]
        dst[slots] = at[:, ends[:, 1]]
        ready[slots] = _departures(sim.clock[at[:, 1:]].astype(np.uint64), msgs)
    sim.send_at(src, dst, ready)
    sim.note_words_many(pos, REFS_WORDS)

    for m, (_, order) in patterns.items():
        if not all(map(np.array_equal, order, _relay_pattern(m)[:2])):
            raise RuntimeError("reference protocol disagrees with direct transform")
    return _from_csr(ptr, kids)


def _tree_rounds(vt: VirtualTree):
    """Every block's relay rounds: near is each child's virtual parent."""
    n = len(vt.vparent)
    return vt.relay_rounds(np.arange(n), np.arange(n - 1), np.diff(vt.blocks.ptr))


def _charge_local_broadcast(sim: SimState, vt: VirtualTree, pos: np.ndarray) -> None:
    """Charge what :func:`local_broadcast` sends, carrying no values."""
    sim.send_rounds([(pos[near], pos[far]) for near, far in _tree_rounds(vt)])
    sim.note_words_many(pos, RELAY_WORDS)


def _vertex_count(vt: VirtualTree, layout: Layout, values) -> int:
    n = len(vt.vparent)
    layout.check_size(n)
    if len(values) != n:
        raise ValueError("one value per vertex required")
    return n


def local_broadcast(sim: SimState, vt: VirtualTree, layout: Layout, values) -> list:
    """Every vertex sends one message to all its original children.

    Current children are served directly; appended children receive the
    relayed copy after the relaying sibling has itself received, so every
    vertex ends up with its original parent's value.  The direct sends are
    one round, and the relays one round per level of the appended links:
    every vertex receives once, before it relays, so the level rounds charge
    what relaying one message at a time would.  ``values`` holds one value
    per vertex; that or a layout of another size raises ValueError first.
    """
    n = _vertex_count(vt, layout, values)
    _charge_local_broadcast(sim, vt, layout.pos_arr)
    ptr, _, child = vt.blocks
    delivered = np.full(n, None, dtype=object)
    delivered[child] = np.fromiter(values, object, n)[np.repeat(np.arange(n), np.diff(ptr))]
    return delivered.tolist()


def local_reduce(sim: SimState, vt: VirtualTree, layout: Layout, values,
                 op: Callable, identity) -> list:
    """Every vertex receives the op-fold of its original children's values.

    Appended subtrees fold bottom-up into their owning sibling, one level at
    a time; each current child then delivers its combined block to the
    parent.  op must be associative and commutative.  The messages mirror
    :func:`local_broadcast`'s, as a treefix rake does: the same links, far
    to near, one round per relay level, deepest first.  A vertex hears from
    its appended children in the rounds below its own and from its current
    children only in the level-0 round, which is last, so its partial
    departs once its appended receipts are in, not waiting for the sibling
    deliveries folded into its own result.  ``values`` and the layout are
    checked as for :func:`local_broadcast`.
    """
    n = _vertex_count(vt, layout, values)
    pos = layout.pos_arr
    fold = np.frompyfunc(op, 2, 1)
    up = np.fromiter(values, dtype=object, count=n)
    result = np.empty(n, dtype=object)
    result.fill(identity)
    rounds = _tree_rounds(vt)
    for j in reversed(range(len(rounds))):
        x, a = rounds[j]
        fold.at(up if j else result, x, up[a])  # in slot order, like one at a time
    sim.send_rounds([(pos[far], pos[near]) for near, far in reversed(rounds)])
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
    relaying through the block, delivering the result to dst_pos.

    The appended links go first, grouped by relay and relays taken last to
    first in relay order, then the current children."""
    b = vt.blocks
    lo, hi = b.ptr[parent_vertex], b.ptr[parent_vertex + 1]
    slot_of = {c: k for k, c in enumerate(b.dst[lo:hi].tolist(), lo)}
    up = {c: contribution(c) for c in slot_of}
    # relay -1 is dst_pos: it folds the current children, after every relay
    slot_of[-1] = -1
    up[-1] = identity
    for k in sorted(range(lo, hi), key=lambda k: (-slot_of[b.src[k]], k)):
        x, c = b.src[k], b.dst[k]
        sim.send(pos[c], dst_pos if x < 0 else pos[x])
        up[x] = op(up[x], up[c])
    return up[-1]
