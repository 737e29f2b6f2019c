"""Euler-tour chains and randomized contraction-based list ranking.

List ranking repeatedly splices out an independent set of elements chosen by
random-mate coin flips, solves the small remnant by a sequential walk, and
then replays the splices in reverse to assign every element its distance
from the head.  Ranking the successor chain of an Euler tour yields tour
indices, from which subtree sizes fall out as half the first/last gap.

The contraction works on int64 arrays throughout: each iteration draws its
coins with one :meth:`Lcg.next_bits`, gathers the successors' coins only
for the heads, and drops the spliced elements from the live list by index.
As in the paper, where a spliced processor stores the iteration it left
in, each iteration logs only its own splices: the removed elements, the
predecessor that jumped over each, and each one's rank offset from it.
Ranks and subtree sizes are returned as int64 arrays.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .rng import Lcg
from .sim import SimState
from .trees import RootedTree


class ChainError(ValueError):
    """The successor array does not describe a single chain."""


def _validate_chain(succ: np.ndarray, head: int) -> None:
    """Raise ChainError unless the integer array succ links its elements
    into one chain from head.  The range is checked in succ's own dtype,
    so a uint64 successor past int64 is named as given."""
    m = len(succ)
    if not 0 <= head < m:
        raise ChainError(f"head {head} out of range")
    bad = (succ < -1) | (succ >= m)
    if bad.any():
        x = int(bad.argmax())
        raise ChainError(f"successor {succ[x]} of element {x} out of range")
    linked = succ[succ >= 0].astype(np.intp, copy=False)
    npred = np.bincount(linked, minlength=m)
    if m - len(linked) != 1 or npred[head] != 0 or npred.max() > 1:
        raise ChainError("successor links must form one chain covering all elements")


def list_rank(sim: SimState, succ, head: int, seed: int) -> np.ndarray:
    """Rank of every element as an int64 array: rank(head) = 0,
    rank(succ(x)) = rank(x) + 1.

    ``succ`` is a 1-D sequence or array of ints, -1 marking the tail, and
    ``head`` and ``seed`` ints; anything else raises ValueError before a
    message is charged.  Elements occupy curve positions equal to their ids.  Each
    contraction iteration charges one announce round (a message per live
    link) and one splice round (a message per removed element), and logs
    its splices as (removed, jumper, offset) arrays: each removed element,
    the predecessor that jumped over it and its rank less the jumper's.
    The remnant of at most max(4, ceil(log2 m)) elements is walked
    sequentially, then the log is replayed in descending order, one round
    per iteration, each jumper sending its rank to the elements it removed.
    """
    nxt = np.array(succ)
    if nxt.ndim != 1:
        raise ValueError("successors must be a 1-D sequence")
    if nxt.dtype.kind not in "iu" and nxt.size:
        raise ValueError("successors must be integers")
    if isinstance(head, bool) or not isinstance(head, numbers.Integral):
        raise ValueError(f"head must be an integer, not {head!r}")
    _validate_chain(nxt, head)
    nxt = nxt.astype(np.int64, copy=False)  # in range, so exact
    m = len(nxt)
    rng = Lcg(seed)
    if m == 1:
        return np.zeros(1, dtype=np.int64)
    pred = np.full(m, -1, dtype=np.int64)
    sender = np.flatnonzero(nxt >= 0)
    pred[nxt[sender]] = sender
    weight = np.ones(m, dtype=np.int64)   # original hops from x to nxt[x]
    coin = np.zeros(m, dtype=np.uint8)
    live = np.arange(m, dtype=np.int64)
    threshold = max(4, math.ceil(math.log2(m)))
    log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while len(live) > threshold:
        bits = rng.next_bits(len(live))
        coin[live] = bits
        linked = nxt[live] >= 0
        sender = live[linked]
        # one round of announces: identity and coin to the successor
        sim.send_round(sender, nxt[sender])
        # heads whose successor flipped tails, the chain's head excepted
        # (live stays ascending); selecting before any splice keeps the set
        # independent in the current chain, so the splices below touch
        # distinct predecessors and successors
        bits[np.searchsorted(live, head)] = 0
        picked = np.flatnonzero(linked & (bits == 1))
        picked = picked[coin[nxt[live[picked]]] == 0]
        removed = live[picked]
        p = pred[removed]
        z = nxt[removed]
        # one round of splice messages to the predecessors
        sim.send_round(removed, p)
        log.append((removed, p, weight[p]))
        weight[p] += weight[removed]
        nxt[p] = z
        pred[z] = p
        sim.note_words_many(live, 7)  # succ, pred, weight, rank, tag, src, coin
        live = np.delete(live, picked)
        sim.rounds += 1
    del pred, coin, live, sender
    rank = np.zeros(m, dtype=np.int64)
    cur = head
    while (z := int(nxt[cur])) >= 0:  # the few links contraction left
        sim.send(cur, z)
        rank[z] = rank[cur] + weight[cur]
        cur = z
    while log:
        removed, p, offset = log.pop()
        sim.send_round(p, removed)
        rank[removed] = rank[p] + offset
    # a cycle disjoint from the chain passes the link counts above, but its
    # elements never get a rank of their own
    if (np.bincount(rank, minlength=m) != 1).any():
        raise ChainError("successor links must form one chain covering all elements")
    return rank


def tour_links(t: RootedTree, kids=None):
    """Successor chain over the 2n-1 tour slots, visiting children in the
    order of ``kids``: the flat side of a child CSR, ``t.kids`` if None.

    Slot v (v < n) is the first visit of vertex v; slot n + j is the j-th
    return visit, enumerated over (vertex, child index) pairs.  Returns
    (succ, head, ret_base) as arrays, where slot ret_base[v] + i visits v
    after its i-th child's subtree.
    """
    n = t.n
    deg = np.diff(t.ptr)
    if kids is None:
        kids = t.kids
    ret_base = n + t.ptr[:-1]
    # the return slot after c's subtree is the slot of c's place in kids
    after = np.full(n, -1, dtype=np.int64)
    after[kids] = n + np.arange(n - 1)
    inner = np.flatnonzero(deg)
    succ = np.empty(2 * n - 1, dtype=np.int64)
    succ[:n] = after
    succ[inner] = kids[ret_base[inner] - n]
    # a return slot continues with the next sibling, or after the last
    # child with whatever follows the parent's own subtree
    succ[n:-1] = kids[1:]
    succ[ret_base[inner] + deg[inner] - 1] = after[inner]
    return succ, t.root, ret_base


def subtree_sizes_via_tour(sim: SimState, t: RootedTree, seed: int) -> np.ndarray:
    """Subtree sizes from a ranked Euler tour, as an int64 array:
    s(v) = (last - first)/2 + 1.

    The first-visit slot of v sits at v's own position; in one round the
    slot of each internal vertex's last return visit sends its rank home.
    """
    n = t.n
    if n == 1:
        return np.ones(1, dtype=np.int64)
    if sim.placement.n < 2 * n - 1:
        raise ValueError("placement too small for the 2n-1 tour slots")
    succ, head, ret_base = tour_links(t)
    rank = list_rank(sim, succ, head, seed)
    deg = np.diff(t.ptr)
    inner = np.flatnonzero(deg)
    last_slot = ret_base[inner] + deg[inner] - 1
    sim.send_round(last_slot, inner)
    sizes = np.ones(n, dtype=np.int64)
    sizes[inner] = (rank[last_slot] - rank[inner]) // 2 + 1
    return sizes
