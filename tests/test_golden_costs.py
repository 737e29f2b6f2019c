"""Exact model costs pinned for every CLI algorithm on small inputs.

Each entry of ``data/golden_costs.json`` holds the energy, depth, messages
and rounds of one ``spatialtree run`` configuration, plus the sha256 of its
trace events in sorted order.  Sorting lets events move within a round but
catches any event that changes.  A change that alters model cost on purpose
regenerates the table in the same change:

    PYTHONPATH=src python tests/test_golden_costs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from spatialtree.cli import ALGORITHMS, _execute, _load_tree, make_parser
from spatialtree.curves import CurveKind
from spatialtree.trees import GENERATOR_KINDS

GOLDEN = Path(__file__).parent / "data" / "golden_costs.json"
SEEDS = (1, 7)
ORDERS = ("light-first", "bfs", "dfs")
# light-first only: listrank and layout ignore --order, lca rejects the rest
LIGHT_FIRST_ONLY = ("listrank", "layout", "lca")


def _sizes(kind):
    if kind == "perfect-binary":
        return (1, 63, 255)
    return (1, 2, 64, 256)


def configurations():
    for algorithm in ALGORITHMS:
        orders = ("light-first",) if algorithm in LIGHT_FIRST_ONLY else ORDERS
        for kind in GENERATOR_KINDS:
            for n in _sizes(kind):
                for curve in CurveKind:
                    for order in orders:
                        for seed in SEEDS:
                            yield algorithm, kind, n, curve.value, order, seed


def key(algorithm, kind, n, curve, order, seed):
    return f"{algorithm}/{kind}/{n}/{curve}/{order}/{seed}"


def trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in sorted(events):
        h.update(f"{ev.src} {ev.dst} {ev.cost} {ev.depth}\n".encode())
    return h.hexdigest()


def measure(algorithm, kind, n, curve, order, seed) -> dict:
    args = make_parser().parse_args(
        ["run", "--algorithm", algorithm, "--kind", kind, "--n", str(n),
         "--curve", curve, "--order", order, "--seed", str(seed),
         "--trace", "unused"])
    sim, _lines, _dist = _execute(args, _load_tree(args), CurveKind(curve), False)
    report = sim.report()
    return {"energy": report.energy, "depth": report.depth,
            "messages": report.messages, "rounds": report.rounds,
            "trace_sha256": trace_digest(sim.events)}


def compute_table() -> dict:
    return {key(*cfg): measure(*cfg) for cfg in configurations()}


def test_golden_costs_are_exact():
    want = json.loads(GOLDEN.read_text())
    got = compute_table()
    assert sorted(got) == sorted(want)
    diffs = [k for k in want if got[k] != want[k]]
    assert not diffs, f"{len(diffs)} configurations changed, first: {diffs[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_costs.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_table(), indent=1, sort_keys=True) + "\n")
