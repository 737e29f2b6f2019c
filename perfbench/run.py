"""Closed-loop benchmark runner for spatialtree.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lca-65k --seed 1 --seconds 25 --trace 0

One process runs one workload: it imports the package from ``src/``, sets
the workload up several times (reporting the median), then runs the
workload's fixed list of operations round-robin, one after another, until
``--seconds`` have gone by, timing a host-speed reference loop in between.
Every output is checked against the sequential oracles outside the timed
region.  ``--trace 1`` wraps the library's public
functions (see tracer.py), alternates untraced and traced passes, and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
stamped with the commit, versions, CPU and seed goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # claims made on DEFAULT_SEED must also hold here
SETUP_REPS = 3
REF_INTERVAL_S = 1.5  # least time between two host-speed samples

# (name, unit) in the order they are printed
END_TO_END = (("pass_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("ok_frac", "ratio"), ("energy", "count"), ("depth", "count"),
              ("messages", "count"))
EXTRA_LAYER = (("sim.us_per_msg", "us"), ("sim.trace_events", "count"),
               ("sim.audit_violations", "count"),
               ("treefix.compact_round.deactivated_frac", "ratio"),
               ("trees.oracle_s", "s"), ("python.gc_s", "s"),
               ("python.gc_collections", "count"), ("bench.self_s", "s"),
               ("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
               ("trace.overhead_s", "s"))


class GcClock:
    """gc.callbacks hook: time spent in, and number of, collections."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = None

    def __call__(self, phase, _info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1
            self._t0 = None

    def read(self) -> tuple[float, int]:
        return self.seconds, self.collections


class HostSpeed:
    """Times a fixed pure-Python loop that scatters reads and writes over an
    8 MiB list.

    The loop does not touch the library, so its time follows only the host's
    current speed, which on a shared machine drifts by tens of percent over
    minutes.  ``pass_ref`` divides the pass time by the run's median sample.
    The collector is off while it runs, so the library's heap does not
    change its cost, and it keeps few objects alive, so it does not raise
    the peak RSS."""

    SIZE = 1 << 20

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            mask = self.SIZE - 1
            slots = [0] * self.SIZE
            counts = {}
            acc = 0
            for i in range(self.SIZE):
                # odd multipliers permute the slots and scatter the accesses
                slots[(i * 40503) & mask] = i & 255
                acc += slots[(i * 7919) & mask]
                counts[i & 4095] = acc
            del slots, counts
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)
        finally:
            if enabled:
                gc.enable()


def import_library():
    """Import the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "spatialtree" / "__init__.py").is_file():
        raise SystemExit(f"error: no spatialtree sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import spatialtree
    import workloads
    if Path(spatialtree.__file__).resolve().parent != src / "spatialtree":
        raise SystemExit(f"error: imported spatialtree from {spatialtree.__file__}")
    return workloads


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int) -> dict:
    import numpy
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "seed": seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED}


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"p": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11]}


class Runner:
    """Runs, times and checks operations, and keeps the tallies."""

    def __init__(self, args, wl_mod, tmpdir: str, tracer):
        self.args = args
        self.wl = wl_mod
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.costs: dict[str, dict] = {}           # op -> model cost of its first run
        self.samples: dict[str, list[float]] = {}  # op -> untraced timed seconds
        self.oracle_s = 0.0
        self.trace_events = 0
        self.audit_violations = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)
        print(f"FAIL {msg}", file=sys.stderr)

    def setup(self, label: str):
        if self.tracer:
            self.tracer.begin_op(label)
        t0 = time.perf_counter()
        ops = self.wl.setup(self.args.workload, self.args.seed, self.tmpdir)
        return ops, time.perf_counter() - t0

    def run_op(self, op, label: str, traced: bool) -> float:
        """Run one op, then check it outside the timing; returns its seconds."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        if tracer:
            tracer.begin_op(label)
            span = tracer.open_op_span()
        t0 = time.perf_counter()
        try:
            out, s = op.run()
        except Exception:  # an op that raises is a failed op, not a crash
            s = None
            err = f"raised:\n{traceback.format_exc()}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close_span(span)
        else:
            self.samples.setdefault(op.name, []).append(dt)
        if s is not None:
            err = self._check(op, out, s)
        if err:
            self.fail(f"{op.name}: {err}")
        return dt

    def _check(self, op, out, s) -> str | None:
        rep = s.report()
        cost = {"energy": rep.energy, "depth": rep.depth, "messages": rep.messages}
        if s.events is not None:
            self.trace_events += len(s.events)
        self.audit_violations += len(s.violations)
        t0 = time.perf_counter()
        try:
            err = op.check(out, s)
        except Exception:
            err = f"check raised:\n{traceback.format_exc()}"
        self.oracle_s += time.perf_counter() - t0
        first = self.costs.setdefault(op.name, cost)
        if not err and cost != first:
            err = f"model cost {cost} differs from the first run's {first}"
        return err

    def run_pass(self, ops, index: int, traced: bool) -> float:
        gc.collect()  # every pass starts from the same heap
        return sum(self.run_op(op, f"pass{index}/{op.name}", traced) for op in ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    wl = import_library()
    import_s = time.perf_counter() - t0
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    from spatialtree import curves
    clear_curve_cache = curves.curve_coords.cache_clear

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-")
    try:
        runner = Runner(args, wl, tmp.name, tracer)
        gc_setup0 = gc_clock.read()
        setup_times = []
        if tracer:
            tracer.install()
        for rep in range(SETUP_REPS):
            clear_curve_cache()  # every repetition pays the curve warm-up
            ops, dt = runner.setup(f"setup{rep}")
            setup_times.append(dt)
        if tracer:
            tracer.uninstall()
        gc_setup = [b - a for a, b in zip(gc_setup0, gc_clock.read())]

        host = HostSpeed()
        start = time.perf_counter()
        untraced, traced = [], []   # pass sums, traced runs only
        gc_pass = [0.0, 0]
        traced_ops: list[int] = []
        if tracer:
            # alternate untraced and traced passes; the gap is the overhead
            while not traced or time.perf_counter() - start < args.seconds:
                untraced.append(runner.run_pass(ops, 2 * len(traced), traced=False))
                first_op = len(tracer.op_labels)
                g0 = gc_clock.read()
                tracer.install()
                try:
                    traced.append(runner.run_pass(ops, 2 * len(traced) + 1, traced=True))
                finally:
                    tracer.uninstall()
                gc_pass = [acc + b - a for acc, a, b in zip(gc_pass, g0, gc_clock.read())]
                traced_ops.extend(range(first_op, len(tracer.op_labels)))
        else:
            # round-robin over the ops, one full pass at least, until time is up
            i = 0
            while i < len(ops) or time.perf_counter() - start < args.seconds:
                if i % len(ops) == 0:
                    gc.collect()
                if time.perf_counter() - host.last >= REF_INTERVAL_S:
                    host.sample()
                op = ops[i % len(ops)]
                runner.run_op(op, "", traced=False)
                i += 1
            host.sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        gc.callbacks.remove(gc_clock)
        if tracer:
            tracer.uninstall()
        tmp.cleanup()

    costs = {k: sum(c[k] for c in runner.costs.values())
             for k in ("energy", "depth", "messages")}
    # a pass is the workload's op list; each op contributes its median
    pass_s = sum(statistics.median(v) for v in runner.samples.values())
    end_to_end = {
        "pass_ref": pass_s / statistics.median(host.samples) if host.samples else 0.0,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        **costs,
    }
    units = dict(END_TO_END)
    result_metrics = {k: {"value": end_to_end[k], "unit": units[k]} for k, _u in END_TO_END}
    per_layer = None
    if tracer:
        per_layer = layer_metrics(tracer, runner, traced, untraced, traced_ops,
                                  gc_setup, gc_pass, costs["messages"])
        result_metrics = per_layer

    n_samples = sum(len(v) for v in runner.samples.values())
    results = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "stamp": stamp(args.seed),
        "end_to_end": end_to_end, "pass_s": pass_s, "ref_samples": host.samples,
        "op_samples": runner.samples,
        "op_tail": {k: tail_percentile(v) for k, v in runner.samples.items()},
        "pass_samples": {"untraced": untraced, "traced": traced},
        "setup_samples": setup_times, "import_s": import_s,
        "op_costs": runner.costs, "errors": runner.errors,
        "per_layer": per_layer,
    }
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{base}.json").write_text(json.dumps(results, indent=1) + "\n")
    if tracer:
        tracer.save(OUT_DIR / f"{base}-spans.npz")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{n_samples} untraced op samples, {len(traced)} traced passes")
    print(f"  {'pass_s':12s} {pass_s:.6g} s (wall)")
    for name, unit in END_TO_END:
        print(f"  {name:12s} {end_to_end[name]:.6g} {unit}")
    for name, tail in results["op_tail"].items():
        if tail:
            print(f"  {name}: p{tail['p']} = {tail['value']:.6g} s")
    print(f"  failed {runner.failed} of {runner.attempted} ops "
          f"(fail_frac {runner.failed / runner.attempted:.3g})")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result_metrics}))
    return 0


def layer_metrics(tracer, runner, traced, untraced, traced_ops, gc_setup, gc_pass,
                  messages) -> dict:
    """Per-layer values for one setup plus one traced pass."""
    import tracer as tracer_mod
    n_pass = len(traced)
    weights = {i: 1.0 / SETUP_REPS for i, label in enumerate(tracer.op_labels)
               if label.startswith("setup")}
    weights.update({i: 1.0 / n_pass for i in traced_ops})
    totals = tracer.totals(weights)
    units = dict(tracer_mod.layer_metric_names())
    out = {k: totals[k] for k in units}
    n_passes = len(untraced) + len(traced)
    out.update({
        "sim.us_per_msg": statistics.median(untraced) / max(1, messages) * 1e6,
        "sim.trace_events": runner.trace_events / n_passes,
        "sim.audit_violations": runner.audit_violations / n_passes,
        "treefix.compact_round.deactivated_frac":
            tracer.round_deactivated / max(1, tracer.round_active),
        "trees.oracle_s": runner.oracle_s / n_passes,
        "python.gc_s": gc_setup[0] / SETUP_REPS + gc_pass[0] / n_pass,
        "python.gc_collections": gc_setup[1] / SETUP_REPS + gc_pass[1] / n_pass,
        "bench.self_s": totals[f"{tracer_mod.OP_SPAN}.self_s"],
        "trace.pass_s": statistics.median(traced),
        "trace.untraced_pass_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    units.update(dict(EXTRA_LAYER))
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


if __name__ == "__main__":
    sys.exit(main())
