"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps library functions by module and name, so a
renamed or removed function would otherwise surface only when a benchmark
run fails.
"""

import sys
from pathlib import Path

import spatialtree  # noqa: F401  (install wraps the loaded submodules)
from spatialtree import layout, lca
from spatialtree.curves import CurveKind
from spatialtree.sim import SimState
from spatialtree.trees import gen_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import PACKAGE, TARGETS, Tracer  # noqa: E402


def resolve(mod, attr):
    """The target as its owner holds it: a method's raw class attribute,
    or a module function."""
    owner = sys.modules[f"{PACKAGE}.{mod}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def unwrapped(obj):
    return getattr(obj, "__func__", obj)


def test_tracer_wraps_every_target_and_uninstall_restores_them():
    originals = [resolve(mod, attr) for _, mod, attr, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        for (prefix, mod, attr, _), original in zip(TARGETS, originals):
            wrapped = unwrapped(resolve(mod, attr))
            assert getattr(wrapped, "__wrapped__", None) is unwrapped(original), prefix
    finally:
        tracer.uninstall()
    assert [resolve(mod, attr) for _, mod, attr, _ in TARGETS] == originals


def test_traced_layout_build_fires_every_layer_with_messages():
    # the layout bench reads its per-layer view from these spans, so a
    # refactor that stops calling a layer by name would blank it silently
    t = gen_tree("random-attachment", 1000, seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op("layout")
        layout.build_light_first(t, CurveKind.HILBERT, seed=1)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    for name, calls in (("listrank.list_rank", 2), ("listrank.subtree_sizes_via_tour", 1),
                        ("sim.compact", 1), ("sim.permute", 1)):
        mine = spans["name"] == tracer.names.index(name)
        assert mine.sum() == calls, name
        assert (spans["msgs"][mine] > 0).all(), name


def test_traced_lca_fires_each_of_its_layers_once_with_messages():
    # batched_lca calls these by their public names, so the lca bench's
    # per-layer view keeps them even though values and results are arrays
    t = gen_tree("random-attachment", 1000, seed=1)
    lay = layout.light_first_layout(t, CurveKind.HILBERT)
    queries = [(v, (v * 7 + 3) % t.n) for v in range(0, t.n, 2)]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op("lca")
        lca.batched_lca(SimState(lay.placement()), t, lay, queries, seed=1)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    for name in ("virtual_tree.build_refs_protocol", "treefix.treefix_sum",
                 "treefix.treefix_topdown", "lca.path_decomposition"):
        mine = spans["name"] == tracer.names.index(name)
        assert mine.sum() == 1, name
        assert (spans["msgs"][mine] > 0).all(), name
