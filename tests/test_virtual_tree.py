import math
import operator

import numpy as np
import pytest

from spatialtree import virtual_tree
from spatialtree.curves import CurveKind, aligned_square_side, curve_coords
from spatialtree.layout import build_baseline, light_first_layout
from spatialtree.rng import Lcg
from spatialtree.sim import Placement, SimState
from spatialtree.trees import (GENERATOR_KINDS, RootedTree, gen_tree, light_first_csr,
                               subtree_sizes)
from spatialtree.virtual_tree import (_protocol_pattern, _split_block, block_reduce,
                                      build_refs_protocol, local_broadcast, local_reduce,
                                      transform)


def vt_for(t):
    return transform(t, subtree_sizes(t))


def blocks_of(cur, app):
    """The (ptr, src, dst) block lists of cur/app lists: each block's
    current children, then its appended links breadth-first."""
    ptr, src, dst = [0], [], []
    for kept in cur:
        head = len(dst)
        dst.extend(kept)
        src.extend([-1] * len(kept))
        while head < len(dst):
            x = dst[head]
            head += 1
            for a in app[x]:
                dst.append(a)
                src.append(x)
        ptr.append(len(dst))
    return ptr, src, dst


def cur_app(vt):
    """C(v) and A(v) of every vertex, read off the block CSR."""
    ptr, src, dst = (b.tolist() for b in vt.blocks)
    cur = [[c for x, c in zip(src[lo:hi], dst[lo:hi]) if x < 0]
           for lo, hi in zip(ptr, ptr[1:])]
    app = [[] for _ in cur]
    for x, c in zip(src, dst):
        if x >= 0:
            app[x].append(c)
    return cur, app


def virtual_order(vt):
    """Top-down order over the current and appended links."""
    cur, app = cur_app(vt)
    out = [vt.root]
    for v in out:  # the list grows while it is walked: breadth-first
        out.extend(cur[v])
        out.extend(app[v])
    return out


def reference_transform(t, sizes):
    """The per-vertex construction: halve every light-first child list into
    current and appended children, then walk each block breadth-first for
    its relay order.  Returns cur, app, vparent and the (ptr, src, dst)
    block lists."""
    n = t.n
    cur = [[] for _ in range(n)]
    app = [[] for _ in range(n)]
    vparent = [-1] * n
    for v in range(n):
        kept, subs = _split_block(sorted(t.children[v], key=sizes.__getitem__))
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
    return cur, app, vparent, blocks_of(cur, app)


def reference_refs_protocol(sim, t, sizes, layout):
    """The per-vertex reference-passing protocol: every vertex's block in
    BFS order, one ``sim.send`` per message.  Returns cur, app and vparent.

    Each vertex starts knowing only its sibling index, its parent's degree,
    and references to parent and adjacent siblings.  A vertex's first
    appended child is its right sibling; the second is learned from the
    first child's report of the sibling just past its finished subtree.
    """
    n = t.n
    pos = layout.pos
    ptr, kids = light_first_csr(t, sizes)
    starts, kids_list = ptr.tolist(), kids.tolist()
    cur = [[] for _ in range(n)]
    app = [[] for _ in range(n)]
    vparent = [-1] * n

    for v in t.bfs.tolist():
        cs = kids_list[starts[v]:starts[v + 1]]
        if not cs:
            continue
        kept, subs = _split_block(cs)
        cur[v] = kept
        for c in kept:
            vparent[c] = v
            sim.send(pos[c], pos[v])  # child announces its reference

        # finish(x over cs[lo:hi]): bottom-up; returns the cs-index just past
        # x's appended subtree ("the right sibling of the rightmost descendant")
        def finish(x, lo, hi):
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
                assert finish(owner, lo, lo + len(block)) == lo + len(block)
    return cur, app, vparent


def reference_local_reduce(sim, vt, layout, values, op, identity):
    """local_reduce one message at a time: vertices bottom-up over the
    virtual links, each appended link and current child with its own
    send_at."""
    pos = layout.pos
    cur, app = cur_app(vt)
    n = len(values)
    up = list(values)
    result = [identity] * n
    # a vertex's outgoing partial depends only on its appended receipts, not
    # on the sibling deliveries folded into its own result
    ready = [sim.clock[pos[x]] for x in range(n)]
    for x in reversed(virtual_order(vt)):
        for a in app[x]:
            sim.send_at([pos[a]], [pos[x]], [ready[a]])
            up[x] = op(up[x], up[a])
            ready[x] = max(ready[x], ready[a] + 1)
        acc = identity
        for c in cur[x]:
            sim.send_at([pos[c]], [pos[x]], [ready[c]])
            acc = op(acc, up[c])
        result[x] = acc
    return result


def reference_reduce_slots(cur, app, blocks):
    """Block slots in block_reduce's send order: every relay's appended
    links, relays last to first, then the current children."""
    ptr, _, dst = blocks
    slot_of = {c: k for k, c in enumerate(dst)}
    out = []
    for v in range(len(cur)):
        for x in reversed(dst[ptr[v]:ptr[v + 1]]):
            out.extend(slot_of[a] for a in app[x])
        out.extend(slot_of[c] for c in cur[v])
    return out


def relabel(t, new):
    """The same tree with vertex v renamed new[v]."""
    parent = [-1] * t.n
    for v, p in enumerate(t.parent):
        parent[new[v]] = new[p] if p >= 0 else -1
    return RootedTree(parent)


def relabelled(t, seed):
    return relabel(t, np.random.default_rng(seed).permutation(t.n).tolist())


def reversed_children(t):
    """The same tree with every child list reversed, as an id relabelling:
    vertices are numbered breadth-first, each one's children last to first,
    so equal-size siblings swap their order."""
    order = [t.root]
    for v in order:  # the list grows while it is walked
        order.extend(reversed(t.children[v]))
    new = [0] * t.n
    for i, v in enumerate(order):
        new[v] = i
    return relabel(t, new)


def reference_cases():
    # the star of 5,000 is one block of 4,999 children
    for kind in GENERATOR_KINDS:
        sizes = (1, 3, 7, 127, 1023, 4095) if kind == "perfect-binary" \
            else (1, 2, 3, 9, 100, 1000, 5000)
        for n in sizes:
            t = gen_tree(kind, n, seed=n)
            yield f"{kind}-{n}", t
            yield f"{kind}-{n}-relabelled", relabelled(t, n)
            yield f"{kind}-{n}-reversed", reversed_children(t)


REFERENCE_CASES = list(reference_cases())


@pytest.mark.parametrize("name,t", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_light_first_csr_matches_sorted_children(name, t):
    sizes = subtree_sizes(t)
    ptr, kids = light_first_csr(t, sizes)
    want = [sorted(cs, key=sizes.__getitem__) for cs in t.children]
    assert ptr.tolist() == [0, *np.cumsum([len(cs) for cs in want]).tolist()]
    assert [kids[lo:hi].tolist() for lo, hi in zip(ptr, ptr[1:])] == want


@pytest.mark.parametrize("name,t", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_transform_matches_per_vertex_reference(name, t):
    sizes = subtree_sizes(t)
    cur, app, vparent, blocks = reference_transform(t, sizes)
    vt = transform(t, sizes)
    assert vt.vparent.tolist() == vparent
    assert [b.tolist() for b in vt.blocks] == list(blocks)
    # block_reduce over blocks 0, 1, ... sends every block's slots in the
    # reference order; with vertex v at position v, an event's source is
    # the child that sends
    sim = SimState(Placement.for_size(CurveKind.HILBERT, t.n), trace=True)
    for v in range(t.n):
        got = block_reduce(sim, vt, range(t.n), v, v, lambda c: c, operator.add, 0)
        assert got == sum(t.children[v])
    slot_of = {c: k for k, c in enumerate(blocks[2])}
    assert [slot_of[e.src] for e in sim.events] == reference_reduce_slots(cur, app, blocks)


@pytest.mark.parametrize("name,t", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_relay_levels_count_relay_hops(name, t):
    # a slot's level is the number of relays between it and its block's
    # broadcaster; relay order is breadth-first, so a relay's own slot
    # comes before the slots it relays to
    vt = vt_for(t)
    _, src, dst = (b.tolist() for b in vt.blocks)
    hops = {}  # vertex -> relays between it and its block's broadcaster
    level = []
    for x, c in zip(src, dst):
        hops[c] = 0 if x < 0 else hops[x] + 1
        level.append(hops[c])
    assert vt.level.dtype == np.int8
    assert vt.level.tolist() == level
    assert not vt.level.flags.writeable


@pytest.mark.parametrize("name,t", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_refs_protocol_matches_per_vertex_reference(name, t):
    sizes = subtree_sizes(t)
    lay = light_first_layout(t, sizes=sizes)
    # start from uneven clocks, as after earlier steps of an algorithm
    start = np.random.default_rng(t.n).integers(0, 30, t.n).tolist()
    got = SimState(lay.placement(), trace=True)
    want = SimState(lay.placement(), trace=True)
    got.clock[:] = start
    want.clock[:] = start
    vt = build_refs_protocol(got, t, sizes, lay)
    cur, app, vparent = reference_refs_protocol(want, t, sizes, lay)
    assert got.events == want.events
    assert got.clock.tolist() == want.clock.tolist()
    assert got.report() == want.report()
    assert [b.tolist() for b in vt.blocks] == list(blocks_of(cur, app))
    assert vt.vparent.tolist() == vparent


@pytest.mark.parametrize("kind", ["star", "random-attachment"])
def test_refs_protocol_at_the_clock_limit_raises_and_charges_nothing(kind):
    # from clocks at 2**63 - 2, a message that waits for one arrival departs
    # at 2**63 - 1 and one that waits for two departs past int64; the whole
    # batch is checked before any of it is charged
    t = gen_tree(kind, 100, seed=1)
    sizes = subtree_sizes(t)
    lay = light_first_layout(t, sizes=sizes)
    sim = SimState(lay.placement(), trace=True)
    sim.clock[:] = 2 ** 63 - 2
    before = (sim.report(), sim.clock.tolist())
    with pytest.raises(ValueError, match="ready clock"):
        build_refs_protocol(sim, t, sizes, lay)
    assert (sim.report(), sim.clock.tolist()) == before
    assert list(sim.events) == []


def sequential_refs_charge(sim, t, sizes, layout):
    """The refs protocol's messages queued block after block, parents in BFS
    order, and their departure clocks from one sequential walk over a list
    of Python-int clocks, charged with one ``send_at``."""
    pos = layout.pos
    ptr, kids = light_first_csr(t, sizes)
    src, dst = [], []
    for v in t.bfs.tolist():
        block = [v, *kids[ptr[v]:ptr[v + 1]].tolist()]  # by place + 1
        if len(block) > 1:
            for a, b in _protocol_pattern(len(block) - 1)[0]:
                src.append(pos[block[a + 1]])
                dst.append(pos[block[b + 1]])
    clock = sim.clock.tolist()
    ready = []
    for a, b in zip(src, dst):
        ready.append(clock[a])
        clock[b] = max(clock[b], clock[a] + 1)
    sim.send_at(src, dst, ready)


@pytest.mark.parametrize("walk", ["python", "default", "column"])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_refs_protocol_walk_matches_the_sequential_list_walk(monkeypatch, kind, walk):
    # each block length walks either its rows in Python ints or a numpy
    # column per place; force each way, and leave the default mix
    limit = {"python": 10 ** 9, "column": 1}.get(walk)
    if limit is not None:
        monkeypatch.setattr(virtual_tree, "COLUMN_WALK_MIN_BLOCKS", limit)
    for n in (1, 3, 127, 1023) if kind == "perfect-binary" else (1, 2, 100, 1000):
        t = gen_tree(kind, n, seed=n)
        sizes = subtree_sizes(t)
        lay = light_first_layout(t, sizes=sizes)
        rng = np.random.default_rng(n)
        # small uneven clocks, and clocks near the top of the uint64 walk
        for start in (rng.integers(0, 30, n), 2 ** 62 + rng.integers(0, 2 ** 61, n)):
            got = SimState(lay.placement(), trace=True)
            want = SimState(lay.placement(), trace=True)
            got.clock[:] = start
            want.clock[:] = start
            build_refs_protocol(got, t, sizes, lay)
            sequential_refs_charge(want, t, sizes, lay)
            assert got.events == want.events
            assert got.clock.tolist() == want.clock.tolist()
            assert got.report() == want.report()


def tamper_one_length(monkeypatch, length, field):
    """Make _protocol_pattern give, for blocks of ``length`` children only,
    a relay order whose last step has another place (field 0) or another
    relaying place (field 1) than the direct pattern's."""
    real = virtual_tree._protocol_pattern

    def tampered(m):
        msgs, order = real(m)
        if m == length:
            order = [list(a) for a in order]
            order[field][-1] = -1 if order[field][-1] != -1 else 0
        return msgs, order

    monkeypatch.setattr(virtual_tree, "_protocol_pattern", tampered)


def test_refs_protocol_check_catches_a_wrong_direct_side(monkeypatch):
    t = gen_tree("star", 9)
    sizes = subtree_sizes(t)
    lay = light_first_layout(t, sizes=sizes)
    tamper_one_length(monkeypatch, 8, 1)
    with pytest.raises(RuntimeError,
                       match="reference protocol disagrees with direct transform"):
        build_refs_protocol(SimState(lay.placement()), t, sizes, lay)


def test_refs_protocol_check_covers_the_largest_block_length(monkeypatch):
    # a tree with many block lengths, tampered in its largest one only
    t = gen_tree("random-attachment", 2000, seed=4)
    sizes = subtree_sizes(t)
    lay = light_first_layout(t, sizes=sizes)
    lengths = set(np.diff(light_first_csr(t, sizes)[0]).tolist()) - {0}
    assert len(lengths) > 5
    build_refs_protocol(SimState(lay.placement()), t, sizes, lay)
    tamper_one_length(monkeypatch, max(lengths), 0)
    with pytest.raises(RuntimeError,
                       match="reference protocol disagrees with direct transform"):
        build_refs_protocol(SimState(lay.placement()), t, sizes, lay)


def test_protocol_relay_order_is_the_relay_pattern():
    for m in range(1, 301):
        places, relays = _protocol_pattern(m)[1]
        want = virtual_tree._relay_pattern(m)
        assert (places, relays) == (want[0].tolist(), want[1].tolist()), m


def test_binary_tree_is_a_fixed_point():
    t = gen_tree("perfect-binary", 15)
    cur, app = cur_app(vt_for(t))
    assert all(not a for a in app)
    assert sorted(map(tuple, cur)) == sorted(map(tuple,
        [sorted(cs, key=lambda c: subtree_sizes(t)[c]) for cs in t.children]))


def test_star_four_children():
    cur, app = cur_app(vt_for(gen_tree("star", 5)))
    assert cur[0] == [1, 3]
    assert app[1] == [2]
    assert app[3] == [4]


def test_star_eight_children_two_halving_levels():
    cur, app = cur_app(vt_for(gen_tree("star", 9)))
    assert cur[0] == [1, 5]
    assert app[1] == [2, 3] and app[3] == [4]
    assert app[5] == [6, 7] and app[7] == [8]
    assert all(len(cur[v]) <= 2 and len(app[v]) <= 2 for v in range(9))


def test_degree_bound_and_coverage_on_random_trees():
    rng = Lcg(3)
    for trial in range(100):
        n = 1 + rng.next_below(400)
        t = gen_tree("random-attachment", n, seed=trial)
        vt = vt_for(t)
        cur, app = cur_app(vt)
        for v in range(n):
            assert len(cur[v]) + len(app[v]) <= 4
        # virtual links reconnect exactly the vertex set
        assert sorted(virtual_order(vt)) == list(range(n))


def test_order_preservation_sizes_ascend_within_pairs():
    rng = Lcg(4)
    for trial in range(50):
        t = gen_tree("random-attachment", 2 + rng.next_below(300), seed=trial)
        sizes = subtree_sizes(t)
        cur, app = cur_app(vt_for(t))
        lay = light_first_layout(t, sizes=sizes)
        for v in range(t.n):
            for pair in (cur[v], app[v]):
                if len(pair) == 2:
                    assert sizes[pair[0]] <= sizes[pair[1]]
        # positions untouched: the original light-first check still holds
        from spatialtree.layout import verify_light_first
        assert verify_light_first(t, sizes, lay)


def test_protocol_reconstruction_matches_transform():
    rng = Lcg(5)
    for trial in range(100):
        n = 1 + rng.next_below(512)
        t = gen_tree("random-attachment", n, seed=trial)
        sizes = subtree_sizes(t)
        lay = light_first_layout(t, sizes=sizes)
        sim = SimState(lay.placement())
        vt = build_refs_protocol(sim, t, sizes, lay)  # asserts equality inside
        assert sim.energy <= 40 * n  # measured constant, with headroom
        direct = transform(t, sizes)
        got, want = (*vt.blocks, vt.vparent), (*direct.blocks, direct.vparent)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # both sides hold read-only C-int arrays, like RootedTree's
        for a in got + want:
            assert isinstance(a, np.ndarray) and a.dtype == np.intc
            assert not a.flags.writeable


def test_local_broadcast_star_two_levels():
    t = gen_tree("star", 5)
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    got = local_broadcast(sim, vt_for(t), lay, ["m"] * 5)
    assert got[1:] == ["m"] * 4
    assert sim.depth <= 2


def test_local_broadcast_single_vertex():
    t = RootedTree([-1])
    lay = light_first_layout(t)
    sim = SimState(lay.placement())
    local_broadcast(sim, vt_for(t), lay, [9])
    assert sim.messages == 0


def test_local_broadcast_delivers_parent_values_everywhere():
    rng = Lcg(6)
    for trial in range(40):
        n = 1 + rng.next_below(300)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t)
        vals = [rng.next_below(10 ** 6) for _ in range(n)]
        got = local_broadcast(SimState(lay.placement()), vt_for(t), lay, vals)
        for v in range(n):
            expect = vals[t.parent[v]] if t.parent[v] >= 0 else None
            assert got[v] == expect


def scalar_local_broadcast(sim, vt, pos):
    """Round one as a pair list, then every relay with its own send in
    virtual-tree order."""
    cur, app = cur_app(vt)
    sim.send_batch([(pos[v], pos[c]) for v, cs in enumerate(cur) for c in cs])
    for v in virtual_order(vt):
        for a in app[v]:
            sim.send(pos[v], pos[a])


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_local_broadcast_level_rounds_charge_like_relays(kind):
    n = 255 if kind == "perfect-binary" else 300
    t = gen_tree(kind, n, seed=5)
    rng = np.random.default_rng(5)
    for lay in (light_first_layout(t), build_baseline(t, "bfs", CurveKind.ZORDER)):
        # start from uneven clocks, as after earlier steps of an algorithm
        start = rng.integers(0, 30, n).tolist()
        got = SimState(lay.placement(), trace=True)
        want = SimState(lay.placement(), trace=True)
        got.clock[:] = start
        want.clock[:] = start
        local_broadcast(got, vt_for(t), lay, list(range(n)))
        scalar_local_broadcast(want, vt_for(t), lay.pos)
        assert sorted(got.events) == sorted(want.events)
        assert got.clock.tolist() == want.clock.tolist()
        assert (got.energy, got.depth, got.messages) == (want.energy, want.depth, want.messages)


@pytest.mark.parametrize("count", [30, 49, 51, 80])
def test_local_kernels_need_one_value_per_vertex(count):
    t = gen_tree("random-attachment", 50, seed=1)
    lay = light_first_layout(t)
    vt = vt_for(t)
    sim = SimState(lay.placement(), trace=True)
    sim.clock[:] = np.arange(t.n)
    for run in (lambda v: local_broadcast(sim, vt, lay, v),
                lambda v: local_reduce(sim, vt, lay, v, operator.add, 0)):
        with pytest.raises(ValueError, match="one value per vertex required"):
            run([1] * count)
        assert sim.report() == SimState(lay.placement()).report()
        assert sim.clock.tolist() == list(range(t.n))
        assert len(sim.events) == 0


def test_local_reduce_examples_and_oracle():
    t = gen_tree("star", 7)
    lay = light_first_layout(t)
    got = local_reduce(SimState(lay.placement()), vt_for(t), lay,
                       [1] * 7, operator.add, 0)
    assert got[0] == 6
    single = RootedTree([-1])
    slay = light_first_layout(single)
    assert local_reduce(SimState(slay.placement()), vt_for(single), slay,
                        [5], operator.add, 0) == [0]
    rng = Lcg(7)
    for trial in range(30):
        n = 1 + rng.next_below(250)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t)
        vals = [rng.next_below(100) for _ in range(n)]
        got = local_reduce(SimState(lay.placement()), vt_for(t), lay,
                           vals, operator.add, 0)
        for v in range(n):
            assert got[v] == sum(vals[c] for c in t.children[v])


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_local_reduce_matches_per_message_reference(kind):
    n = 255 if kind == "perfect-binary" else 300
    t = gen_tree(kind, n, seed=9)
    rng = np.random.default_rng(9)
    vt = vt_for(t)
    # list concatenation also pins the order in which partials are folded
    values = [[v] for v in rng.integers(0, 1000, n).tolist()]
    for lay in (light_first_layout(t), build_baseline(t, "bfs", CurveKind.ZORDER)):
        # start from uneven clocks, as after earlier steps of an algorithm
        start = rng.integers(0, 30, n).tolist()
        got = SimState(lay.placement(), trace=True)
        want = SimState(lay.placement(), trace=True)
        got.clock[:] = start
        want.clock[:] = start
        out = local_reduce(got, vt, lay, values, operator.add, [])
        assert out == reference_local_reduce(want, vt, lay, values, operator.add, [])
        assert sorted(got.events) == sorted(want.events)
        assert got.clock.tolist() == want.clock.tolist()
        assert got.report() == want.report()


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_local_reduce_sends_the_broadcast_links_deepest_level_first(kind):
    # from zero clocks a broadcast message's depth is its relay level + 1,
    # so the reduce lists the broadcast's events by level, deepest first,
    # each level in the broadcast's order, with its ends swapped
    n = 255 if kind == "perfect-binary" else 300
    t = gen_tree(kind, n, seed=5)
    vt = vt_for(t)
    for lay in (light_first_layout(t), build_baseline(t, "bfs", CurveKind.ZORDER)):
        down = SimState(lay.placement(), trace=True)
        up = SimState(lay.placement(), trace=True)
        local_broadcast(down, vt, lay, [0] * n)
        local_reduce(up, vt, lay, [0] * n, operator.add, 0)
        mirror = sorted(down.events, key=lambda e: -e.depth)
        assert [(e.src, e.dst) for e in up.events] == [(e.dst, e.src) for e in mirror]


def test_broadcast_energy_recurrence_bound_general_trees():
    # E(n) <= 8 * alpha * degree * n with alpha = 3 on Hilbert and the
    # virtual tree sending at most 4 messages per vertex
    rng = Lcg(19)
    for trial in range(10):
        n = 64 + rng.next_below(4000)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t)
        sim = SimState(lay.placement())
        local_broadcast(sim, vt_for(t), lay, [0] * n)
        assert sim.energy <= 8 * 3 * 4 * n


def test_broadcast_energy_linear_on_light_first_superlinear_on_bfs():
    light, bfs = [], []
    for k in (8, 10, 12, 14, 16, 18):
        t = gen_tree("perfect-binary", 2 ** k - 1)
        vt = vt_for(t)
        lay = light_first_layout(t)
        s = SimState(lay.placement())
        local_broadcast(s, vt, lay, [1] * t.n)
        light.append(s.energy)
        if k <= 12:
            blay = build_baseline(t, "bfs", CurveKind.HILBERT)
            s = SimState(blay.placement())
            local_broadcast(s, vt, blay, [1] * t.n)
            bfs.append(s.energy)
    for a, b in zip(light, light[1:]):
        assert b / a <= 4.5
    for a, b in zip(bfs, bfs[1:]):
        assert b / a >= 6.0


def test_zorder_diagonal_usage_bound_small():
    # every diagonal is "longest" for at most max_sends * ceil(log2(4 s^2))
    # messages, where s is the side of the smallest aligned square containing
    # the step
    rng = Lcg(8)
    for trial in range(6):
        n = 2 + rng.next_below(1024)
        t = gen_tree("random-attachment", n, seed=trial)
        lay = light_first_layout(t, CurveKind.ZORDER)
        vt = vt_for(t)
        sim = SimState(lay.placement(), trace=True)
        local_broadcast(sim, vt, lay, [0] * n)
        rows, cols = curve_coords(CurveKind.ZORDER, lay.k)
        sent = {}
        for ev in sim.events:
            sent[ev.src] = sent.get(ev.src, 0) + 1
        delta = max(sent.values())
        counts = {}
        spans = {}
        for ev in sim.events:
            lo, hi = min(ev.src, ev.dst), max(ev.src, ev.dst)
            best_t, best_d = -1, 0
            for step in range(lo, hi):
                a = (rows[step], cols[step])
                b = (rows[step + 1], cols[step + 1])
                if aligned_square_side(a, b) >= 4:
                    d = abs(a[0] - b[0]) + abs(a[1] - b[1])
                    if d > best_d:
                        best_t, best_d = step, d
            if best_t >= 0:
                counts[best_t] = counts.get(best_t, 0) + 1
                spans[best_t] = aligned_square_side(
                    (rows[best_t], cols[best_t]),
                    (rows[best_t + 1], cols[best_t + 1]))
        for step, c in counts.items():
            bound = delta * math.ceil(math.log2(4 * spans[step] ** 2))
            assert c <= bound, (step, c, bound)
