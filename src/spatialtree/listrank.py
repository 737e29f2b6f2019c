"""Euler tours and randomized contraction-based list ranking.

List ranking repeatedly splices out an independent set of elements chosen by
random-mate coin flips, solves the small remnant by a sequential walk, and
then replays the splices in reverse to assign every element its distance
from the head.  Ranking the successor chain of an Euler tour yields tour
indices, from which subtree sizes fall out as half the first/last gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .rng import Lcg
from .sim import SimState
from .trees import RootedTree


class ChainError(ValueError):
    """The successor array does not describe a single chain."""


@dataclass
class EulerTour:
    """Vertex-visit sequence of length 2n-1, with first/last occurrence indices."""

    order: list[int]
    first: list[int]
    last: list[int]


def euler_tour(t: RootedTree, child_order: list[list[int]] | None = None) -> EulerTour:
    """Edge-duplication tour: from v, visit children in order, returning to v
    between children.  Starts and ends at the root."""
    ch = child_order if child_order is not None else t.children
    n = t.n
    order: list[int] = []
    first = [-1] * n
    last = [-1] * n
    stack: list[tuple[int, int]] = [(t.root, 0)]
    first[t.root] = 0
    last[t.root] = 0
    order.append(t.root)
    while stack:
        v, i = stack.pop()
        if i < len(ch[v]):
            stack.append((v, i + 1))
            c = ch[v][i]
            first[c] = len(order)
            last[c] = len(order)
            order.append(c)
            stack.append((c, 0))
        elif t.parent[v] >= 0 and stack:
            p = stack[-1][0]
            last[p] = len(order)
            order.append(p)
    return EulerTour(order, first, last)


def _validate_chain(succ: np.ndarray, head: int) -> None:
    m = len(succ)
    if not 0 <= head < m:
        raise ChainError(f"head {head} out of range")
    bad = (succ < -1) | (succ >= m)
    if bad.any():
        x = int(bad.argmax())
        raise ChainError(f"successor {succ[x]} of element {x} out of range")
    linked = succ[succ >= 0]
    npred = np.bincount(linked, minlength=m)
    if m - len(linked) != 1 or npred[head] != 0 or npred.max() > 1:
        raise ChainError("successor links must form one chain covering all elements")


def list_rank(sim: SimState, succ, head: int, seed: int,
              iteration_stats: list | None = None) -> list[int]:
    """Rank of every element: rank(head) = 0, rank(succ(x)) = rank(x) + 1.

    ``succ`` is a sequence of ints, -1 marking the tail.  Elements occupy
    curve positions equal to their ids.  Each contraction iteration charges
    one announce round (a message per live link) and one splice round (a
    message per removed element); the remnant of at most
    max(4, ceil(log2 m)) elements is walked sequentially, then iterations
    are reverted in descending order, one round each.

    When ``iteration_stats`` is a list, one (live, messages, energy) triple
    is appended per contraction iteration.
    """
    nxt = np.array(succ, dtype=np.int64)
    m = len(nxt)
    _validate_chain(nxt, head)
    if m == 1:
        return [0]
    rng = Lcg(seed)
    tails = nxt < 0
    pred = np.full(m, -1, dtype=np.int64)
    pred[nxt[~tails]] = np.flatnonzero(~tails)
    weight = np.ones(m, dtype=np.int64)   # original hops from x to nxt[x]
    src = np.full(m, -1, dtype=np.int64)  # who jumped over x
    delta = np.zeros(m, dtype=np.int64)   # rank offset of x from src[x]
    coin = np.zeros(m, dtype=np.uint8)
    live = np.arange(m, dtype=np.int64)
    threshold = max(4, math.ceil(math.log2(m)))
    removed_per_iter: list[np.ndarray] = []
    while len(live) > threshold:
        msg0, en0 = sim.messages, sim.energy
        coin[live] = rng.next_bits(len(live))
        after = nxt[live]
        linked = after >= 0
        # one round of announces: identity and coin to the successor
        sim.send_round(live[linked], after[linked])
        # heads whose successor flipped tails; selecting before any splice
        # keeps the set independent in the current chain, so the splices
        # below touch distinct predecessors and successors
        picked = linked & (live != head) & (coin[live] == 1)
        picked[picked] = coin[after[picked]] == 0
        removed = live[picked]
        p = pred[removed]
        z = nxt[removed]
        # one round of splice messages to the predecessors
        sim.send_round(removed, p)
        delta[removed] = weight[p]
        weight[p] += weight[removed]
        nxt[p] = z
        pred[z] = p
        src[removed] = p
        removed_per_iter.append(removed)
        if iteration_stats is not None:
            iteration_stats.append((len(live), sim.messages - msg0,
                                    sim.energy - en0))
        if sim.audit:
            for x in live.tolist():
                sim.note_words(x, 7)  # succ, pred, weight, rank, tag, src, coin
        live = live[~picked]
        sim.rounds += 1
    rank = np.zeros(m, dtype=np.int64)
    cur = head
    nxt_list = nxt.tolist()
    while nxt_list[cur] >= 0:
        z = nxt_list[cur]
        sim.send(cur, z)
        rank[z] = rank[cur] + weight[cur]
        cur = z
    for removed in reversed(removed_per_iter):
        p = src[removed]
        sim.send_round(p, removed)
        rank[removed] = rank[p] + delta[removed]
    return rank.tolist()


def tour_links(t: RootedTree, child_order: list[list[int]] | None = None):
    """Successor chain over the 2n-1 tour slots.

    Slot v (v < n) is the first visit of vertex v; slot n + j is the j-th
    return visit, enumerated over (vertex, child index) pairs.  Returns
    (succ, head, ret_base) as arrays, where slot ret_base[v] + i visits v
    after its i-th child's subtree.
    """
    ch = child_order if child_order is not None else t.children
    n = t.n
    deg = np.fromiter(map(len, ch), np.int64, n)
    kids = np.fromiter(chain.from_iterable(ch), np.int64, n - 1)
    ret_base = n + np.cumsum(deg) - deg
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


def subtree_sizes_via_tour(sim: SimState, t: RootedTree, seed: int) -> list[int]:
    """Subtree sizes from a ranked Euler tour: s(v) = (last - first)/2 + 1.

    The first-visit slot of v sits at v's own position; in one round the
    slot of each internal vertex's last return visit sends its rank home.
    """
    n = t.n
    if n == 1:
        return [1]
    if sim.placement.n < 2 * n - 1:
        raise ValueError("placement too small for the 2n-1 tour slots")
    succ, head, ret_base = tour_links(t)
    rank = np.array(list_rank(sim, succ, head, seed))
    deg = np.fromiter(map(len, t.children), np.int64, n)
    inner = np.flatnonzero(deg)
    last_slot = ret_base[inner] + deg[inner] - 1
    sim.send_round(last_slot, inner)
    sizes = np.ones(n, dtype=np.int64)
    sizes[inner] = (rank[last_slot] - rank[inner]) // 2 + 1
    return sizes.tolist()
