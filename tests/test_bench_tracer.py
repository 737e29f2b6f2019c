"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps library functions by module and name, so a
renamed or removed function would otherwise surface only when a benchmark
run fails.
"""

import sys
from pathlib import Path

import spatialtree  # noqa: F401  (install wraps the loaded submodules)

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
