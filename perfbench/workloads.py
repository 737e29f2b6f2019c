"""Workload definitions: seeded inputs, the timed operations and their oracles.

``setup(name, seed, tmpdir)`` builds a workload's inputs and returns its
fixed list of operations.  An operation's ``run`` is the timed part: it
creates its own ``SimState``, calls one public library function and returns
``(output, sim)``.  Its ``check`` runs outside the timed region and returns
an error message, or None when the output matches the sequential oracle.

Library functions are looked up through their modules at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from typing import Callable

from spatialtree import curves, layout, lca, sim, treefix, trees, virtual_tree
from spatialtree.rng import Lcg

HILBERT = curves.CurveKind.HILBERT
ZORDER = curves.CurveKind.ZORDER

WORKLOADS = ("lca-65k", "layout-65k", "shapes-traced")


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]
    check: Callable[[object, object], str | None]


def lca_queries(t: trees.RootedTree, count: int, seed: int, cap: int = 4):
    """Random query pairs, each vertex in at most ``cap`` of them.

    Same draw as ``spatialtree run --algorithm lca`` without ``--queries``,
    so per-op costs can be compared with the CLI's report."""
    rng = Lcg(seed)
    mult = [0] * t.n
    out = []
    tries = 0
    while len(out) < count and tries < 100 * count + 100:
        tries += 1
        u = rng.next_below(t.n)
        v = rng.next_below(t.n)
        need = {u: 2} if u == v else {u: 1, v: 1}
        if all(mult[x] + k <= cap for x, k in need.items()):
            out.append((u, v))
            for x, k in need.items():
                mult[x] += k
    return out


def seeded_values(n: int, seed: int) -> list[int]:
    rng = Lcg(seed ^ 0x5EED)
    return [rng.next_below(2001) - 1000 for _ in range(n)]


def warm_curve(kind, n: int) -> None:
    curves.curve_coords(kind, sim.Placement.for_size(kind, n).k)


# -- lca-65k ------------------------------------------------------------------

def _lca_op(kind: str, n: int, seed: int) -> Op:
    t = trees.gen_tree(kind, n, seed=seed)
    queries = lca_queries(t, n, seed)
    lay = layout.light_first_layout(t, HILBERT)
    warm_curve(HILBERT, n)

    def run():
        s = sim.SimState(lay.placement())
        return lca.batched_lca(s, t, lay, queries, seed), s

    def check(answers, _s):
        want = [trees.lca_naive(t, u, v) for u, v in queries]
        if answers != want:
            bad = sum(a != b for a, b in zip(answers, want))
            return f"{bad} of {len(want)} LCA answers disagree with lca_naive"
        return None

    return Op(f"lca/{kind}", run, check)


# -- layout-65k ---------------------------------------------------------------

def _layout_op(kind: str, n: int, seed: int) -> Op:
    t = trees.gen_tree(kind, n, seed=seed)
    warm_curve(HILBERT, 2 * n - 1)

    def run():
        built, _report, s = layout.build_light_first(t, HILBERT, seed=seed)
        return built, s

    def check(built, _s):
        sizes = trees.subtree_sizes(t)
        if not layout.verify_light_first(t, sizes, built):
            return "built layout is not light-first"
        if built.pos != layout.light_first_positions(t, sizes):
            return "built layout differs from light_first_positions"
        return None

    return Op(f"layout/{kind}", run, check)


# -- shapes-traced ------------------------------------------------------------

def check_trace_file(path: str, s) -> str | None:
    """The dumped trace agrees with the run's cost report; deletes the file."""
    lines = cost = depth = 0
    try:
        with open(path) as fh:
            # one JSON object per line, parsed in bounded batches for speed
            while batch := fh.readlines(1 << 20):
                events = json.loads("[" + ",".join(batch) + "]")
                lines += len(events)
                cost += sum(ev["cost"] for ev in events)
                depth = max(depth, max(ev["depth"] for ev in events))
    finally:
        os.remove(path)
    rep = s.report()
    if (lines, cost, depth) != (rep.messages, rep.energy, rep.depth):
        return (f"trace has {lines} lines, cost {cost}, max depth {depth}; "
                f"report says {rep.messages} msgs, energy {rep.energy}, depth {rep.depth}")
    return None


def _shape_ops(kind: str, n: int, seed: int, tmpdir: str) -> list[Op]:
    t = trees.gen_tree(kind, n, seed=seed)
    values = seeded_values(n, seed)
    sizes = trees.subtree_sizes(t)
    layouts = {"lf": layout.light_first_layout(t, ZORDER, sizes),
               "bfs": layout.build_baseline(t, "bfs", ZORDER)}
    warm_curve(ZORDER, n)
    want_bcast = [values[p] if p >= 0 else None for p in t.parent]
    want_reduce = [sum(values[c] for c in cs) for cs in t.children]
    ops = []

    def make(algo: str, order: str) -> Op:
        lay = layouts[order]
        name = f"{algo}/{kind}/{order}"
        path = os.path.join(tmpdir, name.replace("/", "-") + ".jsonl")

        def run():
            s = sim.SimState(lay.placement(), trace=True, audit_memory=True)
            if algo == "broadcast":
                vt = virtual_tree.transform(t, sizes)
                out = virtual_tree.local_broadcast(s, vt, lay, values)
            elif algo == "reduce":
                vt = virtual_tree.transform(t, sizes)
                out = virtual_tree.local_reduce(s, vt, lay, values, operator.add, 0)
            elif algo == "treefix":
                out = treefix.treefix_sum(s, t, lay, values, seed)
            else:
                out = treefix.treefix_topdown(s, t, lay, values, seed)
            s.dump_trace(path)
            return out, s

        def check(out, s):
            if algo == "broadcast":
                want = want_bcast
            elif algo == "reduce":
                want = want_reduce
            elif algo == "treefix":
                want = trees.subtree_sums(t, values)
            else:
                want = trees.root_path_sums(t, values)
            bad = None if out == want else f"{algo} output disagrees with the oracle"
            return check_trace_file(path, s) or bad

        return Op(name, run, check)

    for algo in ("broadcast", "reduce", "treefix", "treefix-topdown"):
        ops.append(make(algo, "lf"))
    for algo in ("broadcast", "reduce"):
        ops.append(make(algo, "bfs"))
    return ops


def setup(name: str, seed: int, tmpdir: str) -> list[Op]:
    if name == "lca-65k":
        return [_lca_op(k, 65535, seed) for k in ("random-attachment", "perfect-binary")]
    if name == "layout-65k":
        return [_layout_op(k, 65535, seed) for k in ("random-attachment", "perfect-binary")]
    if name == "shapes-traced":
        return [op for k in ("path", "star", "caterpillar")
                for op in _shape_ops(k, 16383, seed, tmpdir)]
    raise ValueError(f"unknown workload {name!r}")
