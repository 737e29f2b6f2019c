"""Trace properties on random trees, for every CLI algorithm on both curves
and every order it accepts: the trace accounts for the whole cost report,
and a seeded run replays to equal reports and equal events."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spatialtree.cli import ALGORITHMS, _execute, make_parser
from spatialtree.curves import CurveKind
from spatialtree.trees import RootedTree

ORDERS = ("light-first", "bfs", "dfs")
# listrank and layout ignore --order, lca rejects all but light-first
LIGHT_FIRST_ONLY = ("listrank", "layout", "lca")


@st.composite
def random_trees(draw, max_n=64):
    """A random recursive tree, relabelled so parents need not come first."""
    n = draw(st.integers(1, max_n))
    picks = draw(st.lists(st.integers(0, 1 << 16), min_size=n - 1, max_size=n - 1))
    ids = draw(st.permutations(range(n)))
    parent = [-1] * n
    for v in range(1, n):
        parent[ids[v]] = ids[picks[v - 1] % v]
    return RootedTree(parent, values=draw(st.lists(st.integers(-9, 9),
                                                   min_size=n, max_size=n)))


def configurations():
    for algorithm in ALGORITHMS:
        orders = ("light-first",) if algorithm in LIGHT_FIRST_ONLY else ORDERS
        for curve in CurveKind:
            for order in orders:
                yield algorithm, curve, order


def traced_run(t, algorithm, curve, order, seed):
    args = make_parser().parse_args(
        ["run", "--algorithm", algorithm, "--curve", curve.value, "--order", order,
         "--seed", str(seed), "--check"])
    sim, _lines, _dist = _execute(args, t, curve, False, True)
    return sim


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_trees(), st.integers(0, 1 << 32))
def test_trace_accounts_for_the_report_and_replays(t, seed):
    for config in configurations():
        sim = traced_run(t, *config, seed)
        events = sim.events
        report = sim.report()
        assert sum(e.cost for e in events) == report.energy, config
        assert max((e.depth for e in events), default=0) == report.depth, config
        assert len(events) == report.messages, config
        again = traced_run(t, *config, seed)
        assert again.report() == report, config
        assert again.events == events, config
