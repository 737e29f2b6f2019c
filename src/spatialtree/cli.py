"""Command-line entry point: generate trees, run algorithms, sweep sizes.

Reports are rows of energy/depth/message counts, one per repetition, written
as CSV or JSON.  All randomness flows from --seed through the fixed LCG, so
identical invocations produce identical reports.

Trees have at most ``MAX_N`` = 2^22 = 4,194,304 vertices: a larger ``--n``,
``--n-list`` entry or ``--tree`` count line exits 2 before any tree is built.

``--trace FILE`` streams repetition 0's messages to FILE while it runs, so
its ``wall_time_ms`` includes writing the trace; later repetitions run
untraced.

Exit codes: 0 success, 1 an output failed its --check oracle, 2 invalid
input or arguments (including a file that cannot be read), 3 an internal
invariant of an algorithm failed (a RuntimeError, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from . import layout as layout_mod
from . import trees as trees_mod
from .curves import CurveKind
from .lca import MAX_MULTIPLICITY, batched_lca
from .listrank import list_rank
from .rng import Lcg
from .sim import Placement, SimState
from .treefix import treefix_sum, treefix_topdown
from .trees import RootedTree, lca_naive, root_path_sums, subtree_sums
from .virtual_tree import local_broadcast, local_reduce, transform

ALGORITHMS = ("broadcast", "reduce", "listrank", "layout",
              "treefix", "treefix-topdown", "lca")
CSV_FIELDS = ("n", "algorithm", "curve", "order", "seed", "energy", "depth",
              "messages", "rounds", "wall_time_ms", "mean_neighbor_distance")
MAX_N = 1 << 22  # largest tree the CLI accepts


@dataclass
class ReportRow:
    n: int
    algorithm: str
    curve: str
    order: str
    seed: int
    energy: int
    depth: int
    messages: int
    rounds: int
    wall_time_ms: float
    mean_neighbor_distance: float | None


class CheckFailure(Exception):
    """An algorithm's output disagreed with its oracle under --check."""


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"n = {n} is above the limit of {MAX_N} vertices")


def _load_tree(args) -> RootedTree:
    if args.tree:
        with open(args.tree) as fh:
            # check the count line, the first non-blank one, before the rest
            first = fh.readline()
            while first.isspace():
                first = fh.readline()
            try:
                count = int(first)
            except ValueError:
                count = 0  # parse_tree reports a malformed count line
            _check_size(count)
            return trees_mod.parse_tree(first + fh.read())
    if not args.kind:
        raise ValueError("either --tree or --kind/--n is required")
    _check_size(args.n)
    return trees_mod.gen_tree(args.kind, args.n, seed=args.seed)


def _build_layout(t: RootedTree, curve: CurveKind, order: str):
    if order == "light-first":
        return layout_mod.light_first_layout(t, curve)
    return layout_mod.build_baseline(t, order, curve)


def _random_chain(n: int, seed: int):
    # a Fisher-Yates shuffle
    order = list(range(n))
    for i, d in zip(range(n - 1, 0, -1), Lcg(seed).next_u64s(n - 1).tolist()):
        j = d % (i + 1)
        order[i], order[j] = order[j], order[i]
    succ = [-1] * n
    for i in range(n - 1):
        succ[order[i]] = order[i + 1]
    return succ, order[0], order


def _random_queries(t: RootedTree, count: int, seed: int):
    rng = Lcg(seed)
    mult = [0] * t.n
    out = []
    tries = 0
    while len(out) < count and tries < 100 * count + 100:
        tries += 1
        u = rng.next_below(t.n)
        v = rng.next_below(t.n)
        need = 2 if u == v else 1
        if max(mult[u], mult[v]) + need <= MAX_MULTIPLICITY:
            out.append((u, v))
            mult[u] += 1
            mult[v] += 1
    return out


def _execute(args, t: RootedTree, curve: CurveKind, dump: bool, trace):
    """Run one repetition; returns (SimState, result lines, mean neighbor
    distance).  ``trace`` is the run's ``SimState`` trace argument: False,
    True or a binary file to stream the trace to."""
    n = t.n
    values = t.values if t.values is not None else [1] * n
    lines: list[str] = []
    mean_dist: float | None = None

    if args.algorithm == "listrank":
        succ, head, order = _random_chain(n, args.seed)
        sim = SimState(Placement.for_size(curve, n), trace=trace,
                       audit_memory=args.audit_memory)
        ranks = list_rank(sim, succ, head, args.seed)
        if args.check:
            expect = {e: i for i, e in enumerate(order)}
            if any(ranks[e] != expect[e] for e in range(n)):
                raise CheckFailure("list ranks disagree with the sequential walk")
        return sim, lines, mean_dist

    if args.algorithm == "layout":
        built, _report, sim = layout_mod.build_light_first(
            t, curve, seed=args.seed, audit_memory=args.audit_memory, trace=trace)
        if args.check:
            sizes = trees_mod.subtree_sizes(t)
            if not layout_mod.verify_light_first(t, sizes, built):
                raise CheckFailure("constructed layout is not light-first")
            if built.pos != layout_mod.light_first_positions(t, sizes):
                raise CheckFailure("pipeline layout disagrees with direct construction")
        if dump:
            lines.extend(layout_mod.format_layout(built).splitlines())
        stats = layout_mod.neighbor_distance_stats(t, built)
        return sim, lines, stats.mean

    lay = _build_layout(t, curve, args.order)
    stats = layout_mod.neighbor_distance_stats(t, lay)
    mean_dist = stats.mean
    sim = SimState(lay.placement(), trace=trace, audit_memory=args.audit_memory)

    if args.algorithm in ("broadcast", "reduce"):
        vt = transform(t, t.sizes)
        if args.algorithm == "broadcast":
            got = local_broadcast(sim, vt, lay, values)
            if args.check:
                for v in range(n):
                    p = t.parent[v]
                    want = values[p] if p >= 0 else None
                    if got[v] != want:
                        raise CheckFailure(f"vertex {v} received {got[v]}, wanted {want}")
        else:
            got = local_reduce(sim, vt, lay, values, lambda a, b: a + b, 0)
            if args.check:
                # summed along the parent ids, cheaper than building child lists
                want = [0] * n
                for v, p in enumerate(t.parent.tolist()):
                    if p >= 0:
                        want[p] += values[v]
                for v in range(n):
                    if got[v] != want[v]:
                        raise CheckFailure(f"vertex {v} reduced {got[v]}, wanted {want[v]}")
        return sim, lines, mean_dist

    if args.algorithm in ("treefix", "treefix-topdown"):
        fn = treefix_sum if args.algorithm == "treefix" else treefix_topdown
        got = fn(sim, t, lay, values, args.seed)
        if args.check:
            oracle = subtree_sums if args.algorithm == "treefix" else root_path_sums
            want = oracle(t, values)
            if got != want:
                raise CheckFailure("treefix output disagrees with the oracle")
        if dump:
            lines.extend(f"{v} {got[v]}" for v in range(n))
        return sim, lines, mean_dist

    if args.algorithm == "lca":
        if args.order != "light-first":
            raise ValueError("lca requires --order light-first")
        if args.queries:
            queries = trees_mod.read_queries(args.queries)
        else:
            queries = _random_queries(t, n, args.seed)
        answers = batched_lca(sim, t, lay, queries, args.seed)
        if args.check:
            want = [lca_naive(t, u, v) for u, v in queries]
            if answers != want:
                raise CheckFailure("lca answers disagree with the oracle")
        if dump:
            lines.extend(f"{u} {v} {a}" for (u, v), a in zip(queries, answers))
        return sim, lines, mean_dist

    raise ValueError(f"unknown algorithm {args.algorithm!r}")


def _rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        d = asdict(r)
        if d["mean_neighbor_distance"] is None:
            d["mean_neighbor_distance"] = ""
        w.writerow(d)
    return buf.getvalue()


def _emit(rows, args):
    text = (_rows_to_csv(rows) if args.format == "csv"
            else json.dumps([asdict(r) for r in rows], indent=2) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_once(args, dump: bool) -> list[ReportRow]:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    t = _load_tree(args)
    curve = CurveKind(args.curve)
    rows = []
    for rep in range(args.reps):
        # repetition 0 streams its trace to the file; later ones run untraced
        traced = args.trace and rep == 0
        with open(args.trace, "wb") if traced else nullcontext(False) as sink:
            start = time.perf_counter()
            sim, lines, mean_dist = _execute(args, t, curve, dump and rep == 0, sink)
            if traced:
                sim.flush_trace()
            elapsed = (time.perf_counter() - start) * 1000.0
        if rep == 0:
            # a JSON report on stdout must be all of stdout
            stream = sys.stderr if args.format == "json" and not args.out else sys.stdout
            for ln in lines:
                print(ln, file=stream)
        if sim.audit and sim.violations:
            print(f"warning: {len(sim.violations)} memory-budget violations "
                  f"(max {sim.max_words} words)", file=sys.stderr)
        rep_report = sim.report()
        rows.append(ReportRow(t.n, args.algorithm, curve.value, args.order,
                              args.seed, rep_report.energy, rep_report.depth,
                              rep_report.messages, rep_report.rounds,
                              round(elapsed, 3), mean_dist))
    return rows


def cmd_gen(args) -> int:
    _check_size(args.n)
    t = trees_mod.gen_tree(args.kind, args.n, seed=args.seed)
    text = trees_mod.format_tree(t)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    rows = _run_once(args, dump=True)
    _emit(rows, args)
    return 0


def cmd_sweep(args) -> int:
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not ns or args.tree:
        raise ValueError("sweep needs --kind and --n-list")
    _check_size(max(ns))
    rows = []
    for n in ns:
        args.n = n
        rows.extend(_run_once(args, dump=False))
    _emit(rows, args)
    return 0


def _add_run_options(p):
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--tree", help="tree file (overrides --kind/--n)")
    p.add_argument("--kind", choices=trees_mod.GENERATOR_KINDS)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--curve", default="hilbert", choices=[c.value for c in CurveKind])
    p.add_argument("--order", default="light-first",
                   choices=["light-first", "bfs", "dfs"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--queries", help="query file for lca: one 'u v' per line")
    p.add_argument("--check", action="store_true",
                   help="verify outputs against the sequential oracles")
    p.add_argument("--audit-memory", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--trace", help="stream repetition 0's JSON-lines message trace here")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spatialtree")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tree file")
    g.add_argument("--kind", required=True, choices=trees_mod.GENERATOR_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run one algorithm and report costs")
    _add_run_options(r)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="run one algorithm across sizes")
    _add_run_options(s)
    s.add_argument("--n-list", required=True,
                   help="comma-separated sizes, e.g. 255,1023,4095")
    s.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
