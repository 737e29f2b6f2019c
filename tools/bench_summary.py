"""Summarise perfbench results files into one compact BENCH_<pr>.json.

    python3 tools/bench_summary.py --out BENCH_12.json \\
        --command "python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0" \\
        --parent runs/parent/*.json --change runs/change/*.json

Each input is the results file of one ``perfbench/run.py`` run, as written
to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` (copy it away
after each run, since the next run of that workload overwrites it).
Untraced runs are grouped by workload and seed and paired in the order
given, so list the parent and change files of alternating runs in the order
they ran.  Traced (``--trace 1``) runs are not paired: per workload and seed
the summary gives each side's median of every per-layer self time and trace
timing, to show in which layer a change of ``pass_s`` appears.

The summary holds the parent and change commits, the command, the host
stamp, and per workload and seed: the pair count, how many pairs the
change won on each of ``WON`` (lower is better for all of them, and a tie
counts for neither side), and for each side the median and interquartile
range of every end-to-end time and memory metric, the smallest and largest
single set-up sample over all its runs (a run's ``setup_s`` is the median
of its ``setup_samples`` plus import time, which hides their spread), the
op count of each run and the model costs.  Model costs are exact for a
seed, so a side whose runs disagree on them is an error.  All runs must
come from one host.

Each workload and seed also gets a paired verdict on each of ``PAIRED``:
the median of the per-pair ratios change / parent, an exact sign-test
interval for that median at ``CONFIDENCE`` (95 %) taken from the ordered
ratios, and "faster" ("lower" for peak memory) when the whole interval
lies below 1, "slower" ("higher") when it lies above 1, "unresolved"
otherwise.  The interval is distribution
free: it assumes only that pairs are independent.  Fewer than 6 pairs
cannot reach 95 %, so they give no interval and stay unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from math import comb
from pathlib import Path

TIMED = ("pass_ref", "pass_s", "setup_s", "peak_rss_mb", "ok_frac")
WON = ("pass_ref", "pass_s", "setup_s", "peak_rss_mb")  # lower is better
COSTS = ("energy", "depth", "messages")
HOST = ("python", "numpy", "nproc", "cpu")
# paired verdicts, lower is better: metric -> the words for a change that
# lowers or raises it
PAIRED = {"pass_s": ("faster", "slower"), "pass_ref": ("faster", "slower"),
          "peak_rss_mb": ("lower", "higher")}
CONFIDENCE = 0.95


def load(path: Path) -> dict:
    run = json.loads(path.read_text())
    if run.get("trace") not in (0, 1):
        raise ValueError(f"{path}: not a perfbench results file")
    return run


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def timed(run: dict, metric: str) -> float:
    return run["pass_s"] if metric == "pass_s" else run["end_to_end"][metric]


def side_summary(runs: list[dict], label: str) -> dict:
    """Medians, IQRs, set-up sample range, op counts and the one set of
    model costs of a side's runs of one workload and seed."""
    values = {m: [timed(r, m) for r in runs] for m in TIMED}
    costs = {tuple(r["end_to_end"][c] for c in COSTS) for r in runs}
    if len(costs) != 1:
        raise ValueError(f"{label}: runs disagree on model costs: {sorted(costs)}")
    iqr = {}
    for m, xs in values.items():
        q1, q3 = quartiles(xs)
        iqr[m] = q3 - q1
    setups = [x for r in runs for x in r["setup_samples"]]
    return {
        "runs": len(runs),
        "median": {m: statistics.median(xs) for m, xs in values.items()},
        "iqr": iqr,
        "setup_samples": {"count": len(setups), "min": min(setups), "max": max(setups)},
        "ops": [sum(map(len, r["op_samples"].values())) for r in runs],
        "costs": dict(zip(COSTS, costs.pop())),
    }


def sign_test_interval(xs: list[float], confidence: float = CONFIDENCE):
    """(low, high, coverage): the exact sign-test interval for the median
    of xs, ordered statistics j and n + 1 - j for the largest j whose
    coverage 1 - 2 P(B <= j - 1), B ~ Binomial(n, 1/2), is at least
    confidence; None when even j = 1 (the smallest and largest) falls
    short."""
    n = len(xs)
    xs = sorted(xs)
    best = None
    below = 0  # 2^n P(B <= j - 1)
    for j in range(1, n // 2 + 1):
        below += comb(n, j - 1)
        coverage = 1 - below / 2 ** (n - 1)
        if coverage < confidence:
            break
        best = (xs[j - 1], xs[n - j], coverage)
    return best


def paired_verdict(pairs: list[tuple[dict, dict]], metric: str) -> dict:
    """The median change / parent ratio of metric over the pairs, its
    sign-test interval and what the interval says."""
    ratios = [timed(c, metric) / timed(p, metric) for p, c in pairs]
    interval = sign_test_interval(ratios)
    lowered, raised = PAIRED[metric]
    verdict = "unresolved"
    if interval and interval[1] < 1:
        verdict = lowered
    elif interval and interval[0] > 1:
        verdict = raised
    return {"median_ratio": statistics.median(ratios),
            "interval": list(interval[:2]) if interval else None,
            "coverage": interval[2] if interval else None,
            "verdict": verdict}


def layer_summary(runs: list[dict]) -> dict:
    """Median over a side's traced runs of each per-layer self time and of
    the trace timings (traced and untraced pass, overhead)."""
    names = [k for k in runs[0]["per_layer"] if k.endswith(".self_s") or k.startswith("trace.")]
    return {"runs": len(runs),
            **{k: statistics.median(r["per_layer"][k]["value"] for r in runs) for k in names}}


def by_workload_and_seed(parent: list[dict], change: list[dict]):
    """((workload, seed), (parent runs, change runs)) in sorted order; both
    sides must have runs of each."""
    groups: dict[tuple[str, int], tuple[list, list]] = {}
    for side, runs in enumerate((parent, change)):
        for r in runs:
            groups.setdefault((r["workload"], r["stamp"]["seed"]), ([], []))[side].append(r)
    for (workload, seed), (ps, cs) in sorted(groups.items()):
        if not ps or not cs:
            raise ValueError(f"{workload} seed {seed}: runs on one side only")
        yield (workload, seed), (ps, cs)


def one_value(runs: list[dict], key: str, label: str):
    got = {json.dumps(r["stamp"][key]) for r in runs}
    if len(got) != 1:
        raise ValueError(f"{label}: runs differ in stamp {key!r}: {sorted(got)}")
    return json.loads(got.pop())


def summarise(parent: list[dict], change: list[dict], command: str,
              parent_commit: str | None = None, change_commit: str | None = None) -> dict:
    every = parent + change
    traced = [[r for r in runs if r["trace"]] for runs in (parent, change)]
    parent, change = ([r for r in runs if not r["trace"]] for runs in (parent, change))
    if not parent or not change:
        raise ValueError("need untraced results files for both the parent and the change")
    host = {k: one_value(every, k, "all runs") for k in HOST}
    commits = [given or one_value(runs, "commit", side) for given, runs, side in
               ((parent_commit, parent, "parent"), (change_commit, change, "change"))]
    if commits[0] == commits[1]:
        raise ValueError(f"parent and change both name commit {commits[0]}; "
                         "name the change with --change-commit")
    workloads: dict[str, dict] = {}
    for (workload, seed), (ps, cs) in by_workload_and_seed(parent, change):
        label = f"{workload} seed {seed}"
        pairs = list(zip(ps, cs))
        workloads.setdefault(workload, {})[str(seed)] = {
            "pairs": len(pairs),
            "wins": {m: sum(timed(c, m) < timed(p, m) for p, c in pairs) for m in WON},
            "paired": {m: paired_verdict(pairs, m) for m in PAIRED},
            "parent": side_summary(ps, f"{label} parent"),
            "change": side_summary(cs, f"{label} change"),
        }
    summary = {
        "parent": {"commit": commits[0]},
        "change": {"commit": commits[1]},
        "command": command,
        "host": host,
        "seeds": sorted({int(s) for w in workloads.values() for s in w}),
        "workloads": workloads,
    }
    if any(traced):
        summary["traced"] = {}
        for (workload, seed), (ps, cs) in by_workload_and_seed(*traced):
            summary["traced"].setdefault(workload, {})[str(seed)] = {
                "parent": layer_summary(ps), "change": layer_summary(cs)}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True,
                    help="results files of the parent's runs, in run order")
    ap.add_argument("--change", nargs="+", type=Path, required=True,
                    help="results files of the change's runs, in run order")
    ap.add_argument("--command", required=True, help="the command that made each run")
    ap.add_argument("--parent-commit", help="override the parent runs' stamped commit")
    ap.add_argument("--change-commit", help="override the change runs' stamped commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    try:
        summary = summarise([load(p) for p in args.parent], [load(p) for p in args.change],
                            args.command, args.parent_commit, args.change_commit)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
