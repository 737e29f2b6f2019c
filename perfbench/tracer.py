"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces each target in ``TARGETS`` with a wrapper at
every place the package binds it (the defining module and each module that
imported it by name), so internal calls are caught too.  Each call records a
span: name, start, end, parent span, op id and the ``SimState.messages``
delta across the call.  Spans stay in memory in flat arrays until
``totals``/``save``.  ``SimState.send``/``_deliver`` and ``Lcg`` are never
wrapped: they run millions of times per pass and their time shows up as
their callers' self time.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# how the wrapper finds the SimState whose message count it reports
NO_SIM = ""        # the layer sends no messages itself
ARG0 = "arg0"      # args[0] is the SimState (functions and SimState methods)
ENGINE = "engine"  # args[0].sim is the SimState (ContractionEngine methods)
RESULT = "result"  # the call creates its own SimState and returns it third

# (metric prefix, module, attribute path, how to find the sim)
TARGETS = (
    ("curves.curve_coords", "curves", "curve_coords", NO_SIM),
    ("sim.SimState", "sim", "SimState.__init__", NO_SIM),
    ("sim.send_batch", "sim", "SimState.send_batch", ARG0),
    ("sim.broadcast_range", "sim", "broadcast_range", ARG0),
    ("sim.all_reduce_barrier", "sim", "all_reduce_barrier", ARG0),
    ("sim.prefix_sum", "sim", "prefix_sum", ARG0),
    ("sim.permute", "sim", "permute", ARG0),
    ("sim.compact", "sim", "compact", ARG0),
    ("sim.dump_trace", "sim", "SimState.dump_trace", NO_SIM),
    ("listrank.list_rank", "listrank", "list_rank", ARG0),
    ("listrank.subtree_sizes_via_tour", "listrank", "subtree_sizes_via_tour", ARG0),
    ("listrank.tour_links", "listrank", "tour_links", NO_SIM),
    ("layout.build_light_first", "layout", "build_light_first", RESULT),
    ("layout.Layout.from_positions", "layout", "Layout.from_positions", NO_SIM),
    ("layout.light_first_layout", "layout", "light_first_layout", NO_SIM),
    ("layout.build_baseline", "layout", "build_baseline", NO_SIM),
    ("virtual_tree.block_broadcast", "virtual_tree", "block_broadcast", ARG0),
    ("virtual_tree.block_reduce", "virtual_tree", "block_reduce", ARG0),
    ("virtual_tree.build_refs_protocol", "virtual_tree", "build_refs_protocol", ARG0),
    ("virtual_tree.local_broadcast", "virtual_tree", "local_broadcast", ARG0),
    ("virtual_tree.local_reduce", "virtual_tree", "local_reduce", ARG0),
    ("virtual_tree.transform", "virtual_tree", "transform", NO_SIM),
    ("treefix.ContractionEngine.contract", "treefix", "ContractionEngine.contract", ENGINE),
    ("treefix.ContractionEngine.compact_round", "treefix", "ContractionEngine.compact_round", ENGINE),
    ("treefix.ContractionEngine.uncontract", "treefix", "ContractionEngine.uncontract", ENGINE),
    ("treefix.treefix_sum", "treefix", "treefix_sum", ARG0),
    ("treefix.treefix_topdown", "treefix", "treefix_topdown", ARG0),
    ("lca.batched_lca", "lca", "batched_lca", ARG0),
    ("lca.path_decomposition", "lca", "path_decomposition", ARG0),
    ("lca.subtree_cover", "lca", "subtree_cover", NO_SIM),
    ("trees.gen_tree", "trees", "gen_tree", NO_SIM),
)

PACKAGE = "spatialtree"
OP_SPAN = "bench.op"  # root span the benchmark opens around each operation


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every span-derived per-layer metric."""
    out = []
    for prefix, _mod, _attr, how in TARGETS:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
        if how:
            out.append((f"{prefix}.msgs", "count"))
    return out


class Tracer:
    """Records spans while installed; confine to one thread."""

    def __init__(self):
        self.names: list[str] = [p for p, *_ in TARGETS] + [OP_SPAN]
        self.op_labels: list[str] = []
        self.op = -1
        self.col_name = array("i")
        self.col_parent = array("q")
        self.col_op = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_msgs = array("q")
        self.stack: list[int] = []
        # compact_round bookkeeping for the deactivated share
        self.round_active = 0
        self.round_deactivated = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = [self._make_wrapper(i, how)
                          for i, (_p, _m, _a, how) in enumerate(TARGETS)]

    # -- op ids ---------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def open_op_span(self) -> int:
        idx = len(self.col_name)
        self.col_name.append(len(TARGETS))  # name id of OP_SPAN
        self.col_parent.append(self.stack[-1] if self.stack else -1)
        self.col_op.append(self.op)
        self.col_start.append(time.perf_counter())
        self.col_end.append(0.0)
        self.col_msgs.append(0)
        self.stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.col_end[idx] = time.perf_counter()
        self.stack.pop()

    # -- wrapping ---------------------------------------------------------------

    def _make_wrapper(self, nid: int, how: str):
        clock = time.perf_counter
        stack = self.stack
        c_name, c_parent, c_op = self.col_name, self.col_parent, self.col_op
        c_start, c_end, c_msgs = self.col_start, self.col_end, self.col_msgs
        tracer = self
        counts_rounds = TARGETS[nid][0] == "treefix.ContractionEngine.compact_round"

        def wrap(fn):
            def wrapper(*args, **kwargs):
                sim = None
                if how == ARG0:
                    sim = args[0]
                elif how == ENGINE:
                    sim = args[0].sim
                m0 = sim.messages if sim is not None else 0
                if counts_rounds:
                    active0 = args[0].active_count
                idx = len(c_name)
                c_name.append(nid)
                c_parent.append(stack[-1] if stack else -1)
                c_op.append(tracer.op)
                c_start.append(0.0)
                c_end.append(0.0)
                c_msgs.append(0)
                stack.append(idx)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    c_start[idx] = t0
                    c_end[idx] = t1
                if sim is not None:
                    c_msgs[idx] = sim.messages - m0
                elif how == RESULT:
                    c_msgs[idx] = res[2].messages
                if counts_rounds:
                    tracer.round_active += active0
                    tracer.round_deactivated += res
                return res

            wrapper.__wrapped__ = fn
            return wrapper

        return wrap

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for (prefix, mod, attr, _how), wrap in zip(TARGETS, self._wrappers):
            module = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(wrap(raw.__func__))
                else:
                    new = wrap(raw)
                self._patch(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = wrap(original)
            # every import site: rebinding the name in each module catches
            # calls made inside the package as well as the benchmark's own
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapped)
            if not any(owner is module and key == attr for owner, key, _ in self._patches):
                raise RuntimeError(f"could not wrap {prefix}")

    def _patch(self, owner, key, new) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.col_name, dtype=np.int32),
            "parent": np.array(self.col_parent, dtype=np.int64),
            "op": np.array(self.col_op, dtype=np.int32),
            "start": np.array(self.col_start, dtype=np.float64),
            "end": np.array(self.col_end, dtype=np.float64),
            "msgs": np.array(self.col_msgs, dtype=np.int64),
        }

    @staticmethod
    def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def totals(self, op_weights: dict[int, float]) -> dict[str, float]:
        """Weighted per-name sums of calls, self time and message deltas.

        ``op_weights`` maps op ids to the weight of their spans (for example
        1 / number of traced passes); ops not listed are left out."""
        a = self.arrays()
        n_names = len(self.names)
        weight_of_op = np.zeros(len(self.op_labels), dtype=np.float64)
        for op, w in op_weights.items():
            weight_of_op[op] = w
        w = weight_of_op[a["op"]]
        calls = np.bincount(a["name"], weights=w, minlength=n_names)
        self_s = np.bincount(a["name"], weights=w * self.self_times(a), minlength=n_names)
        msgs = np.bincount(a["name"], weights=w * a["msgs"], minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.msgs"] = float(msgs[i])
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            op_labels=np.array(self.op_labels), **self.arrays())
