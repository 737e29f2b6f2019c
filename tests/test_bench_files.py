"""Committed benchmark summaries and the tool that writes them.

Every ``BENCH_*.json`` at the root of the repository must parse and name
its parent and change commits, its command and its seeds.  Model costs in
an older file may differ from today's code after a change that alters cost
on purpose, so they are not compared with it.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_summary  # noqa: E402

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def check_summary(summary):
    for side in ("parent", "change"):
        commit = summary[side]["commit"]
        assert isinstance(commit, str) and commit
    assert isinstance(summary["command"], str) and summary["command"]
    assert summary["seeds"] and all(type(s) is int for s in summary["seeds"])
    seen = set()
    for by_seed in summary["workloads"].values():
        for seed, entry in by_seed.items():
            seen.add(int(seed))
            assert entry["pairs"] >= 1
            for side in ("parent", "change"):
                assert entry[side]["runs"] >= entry["pairs"]
                assert set(entry[side]["costs"]) == set(bench_summary.COSTS)
    assert seen == set(summary["seeds"])


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_commits_command_and_seeds(path):
    check_summary(json.loads(path.read_text()))


def fake_run(commit, pass_ref, depth=10, seed=1, setups=(0.7, 0.9)):
    """The fields of a perfbench results file that the summary reads."""
    return {"workload": "lca-65k", "trace": 0,
            "stamp": {"commit": commit, "seed": seed, "python": "3.11.7",
                      "numpy": "2.4.6", "nproc": 2, "cpu": "test cpu"},
            "end_to_end": {"pass_ref": pass_ref, "setup_s": 1.0, "peak_rss_mb": 90.0,
                           "ok_frac": 1.0, "energy": 500, "depth": depth, "messages": 40},
            "pass_s": 2 * pass_ref, "op_samples": {"a": [0.1, 0.2], "b": [0.3]},
            "setup_samples": list(setups)}


def write_runs(tmp_path, name, runs):
    paths = []
    for i, run in enumerate(runs):
        paths.append(tmp_path / f"{name}{i}.json")
        paths[-1].write_text(json.dumps(run))
    return [str(p) for p in paths]


def test_summary_pairs_runs_in_the_order_given(tmp_path):
    parent = write_runs(tmp_path, "p", [fake_run("aaa", x) for x in (3.0, 2.0, 4.0)])
    change = write_runs(tmp_path, "c", [fake_run("bbb", x, depth=8) for x in (2.5, 2.1, 3.0)])
    out = tmp_path / "BENCH_0.json"
    assert bench_summary.main(["--parent", *parent, "--change", *change,
                               "--command", "python3 perfbench/run.py", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    check_summary(summary)
    assert (summary["parent"]["commit"], summary["change"]["commit"]) == ("aaa", "bbb")
    entry = summary["workloads"]["lca-65k"]["1"]
    assert entry["pairs"] == 3 and entry["wins"]["pass_ref"] == 2
    assert entry["parent"]["median"]["pass_ref"] == 3.0
    assert entry["parent"]["iqr"]["pass_ref"] == 1.0
    assert entry["parent"]["ops"] == [3, 3, 3]
    assert entry["change"]["costs"] == {"energy": 500, "depth": 8, "messages": 40}


def test_summary_counts_the_pairs_won_on_every_timed_metric():
    # pass_s here is twice pass_ref; ties count for neither side
    parent = [fake_run("aaa", x) for x in (3.0, 2.0, 4.0, 1.0)]
    change = [fake_run("bbb", x) for x in (2.5, 2.0, 3.0, 1.5)]
    for run, setup, rss in zip(change, (0.9, 1.0, 1.2, 0.8), (89.0, 91.0, 88.5, 90.0)):
        run["end_to_end"].update(setup_s=setup, peak_rss_mb=rss)
    entry = bench_summary.summarise(parent, change, "cmd")["workloads"]["lca-65k"]["1"]
    assert entry["wins"] == {"pass_ref": 2, "pass_s": 2, "setup_s": 2, "peak_rss_mb": 2}


def test_summary_gives_each_side_the_range_of_every_set_up_sample():
    # setup_s is one run's median set-up; the range spans every sample of
    # every run, so one slow set-up shows even when the medians agree
    parent = [fake_run("aaa", 3.0, setups=(0.62, 0.8, 0.7)), fake_run("aaa", 3.0, setups=(1.43,))]
    change = [fake_run("bbb", 3.0), fake_run("bbb", 3.0, setups=(0.8, 0.75))]
    entry = bench_summary.summarise(parent, change, "cmd")["workloads"]["lca-65k"]["1"]
    assert entry["parent"]["setup_samples"] == {"count": 4, "min": 0.62, "max": 1.43}
    assert entry["change"]["setup_samples"] == {"count": 4, "min": 0.7, "max": 0.9}
    assert entry["parent"]["median"]["setup_s"] == entry["change"]["median"]["setup_s"] == 1.0


def test_sign_test_interval_takes_the_exact_order_statistics():
    # n = 5 cannot reach 95 %: even the extremes cover only 1 - 2/32
    assert bench_summary.sign_test_interval([1.0, 2.0, 3.0, 4.0, 5.0]) is None
    # n = 6: the extremes, coverage 1 - 2/64
    assert bench_summary.sign_test_interval([6, 1, 5, 2, 4, 3]) == (1, 6, 1 - 2 / 64)
    # n = 10: the 2nd and 9th, coverage 1 - 2 * 11/1024
    assert bench_summary.sign_test_interval(list(range(10, 0, -1))) == (2, 9, 1 - 22 / 1024)


@pytest.mark.parametrize("ratios,verdict,median", [
    ((0.90, 0.85, 0.95, 0.80, 0.92, 0.88), "faster", 0.89),  # every pair won
    ((1.0,) * 6, "unresolved", 1.0),                         # no change at all
    ((0.8, 1.2, 0.9, 1.1, 0.85, 1.15), "unresolved", 1.0),   # half won, half lost
    ((1.10, 1.20, 1.05, 1.15, 1.30, 1.01), "slower", 1.125),
    ((0.9,) * 5, "unresolved", 0.9),                         # too few pairs
])
def test_paired_verdict_reads_the_interval_of_the_ratios(ratios, verdict, median):
    parent = [fake_run("aaa", 2.0 + i) for i in range(len(ratios))]
    change = [fake_run("bbb", (2.0 + i) * r) for i, r in enumerate(ratios)]
    for i, (run, r) in enumerate(zip(parent + change, (1.0,) * len(ratios) + ratios)):
        run["end_to_end"]["peak_rss_mb"] = (70.0 + i % len(ratios)) * r
    entry = bench_summary.summarise(parent, change, "cmd")["workloads"]["lca-65k"]["1"]
    # pass_s is twice pass_ref in both runs of a pair, and peak memory moves
    # by the same ratio, so the ratios agree; memory reads lower or higher
    memory = {"faster": "lower", "slower": "higher"}.get(verdict, verdict)
    assert set(entry["paired"]) == {"pass_s", "pass_ref", "peak_rss_mb"}
    for metric in ("pass_s", "pass_ref", "peak_rss_mb"):
        got = entry["paired"][metric]
        assert got["verdict"] == (memory if metric == "peak_rss_mb" else verdict)
        assert got["median_ratio"] == pytest.approx(median)
        if len(ratios) < 6:
            assert got["interval"] is got["coverage"] is None
        else:
            assert got["interval"] == pytest.approx([min(ratios), max(ratios)])
            assert got["coverage"] == 1 - 2 / 64


def fake_traced_run(commit, barrier_s):
    run = fake_run(commit, 9.0)
    run["trace"] = 1
    run["per_layer"] = {name: {"value": value, "unit": "s"} for name, value in (
        ("sim.all_reduce_barrier.self_s", barrier_s), ("sim.all_reduce_barrier.calls", 46),
        ("trace.pass_s", 2.0), ("trace.untraced_pass_s", 1.5), ("bench.self_s", 0.1))}
    return run


def test_summary_keeps_traced_runs_apart_from_the_pairs():
    parent = [fake_run("aaa", 3.0), fake_traced_run("aaa", 0.2), fake_traced_run("aaa", 0.4)]
    change = [fake_traced_run("bbb", 0.1), fake_run("bbb", 2.0)]
    summary = bench_summary.summarise(parent, change, "cmd")
    check_summary(summary)
    entry = summary["workloads"]["lca-65k"]["1"]
    assert entry["pairs"] == 1 and entry["wins"]["pass_ref"] == 1
    traced = summary["traced"]["lca-65k"]["1"]
    assert traced["parent"] == pytest.approx({
        "runs": 2, "sim.all_reduce_barrier.self_s": 0.3, "trace.pass_s": 2.0,
        "trace.untraced_pass_s": 1.5, "bench.self_s": 0.1})
    assert traced["change"]["sim.all_reduce_barrier.self_s"] == 0.1
    with pytest.raises(ValueError, match="one side only"):
        bench_summary.summarise(parent, change[1:], "cmd")
    with pytest.raises(ValueError, match="untraced"):
        bench_summary.summarise(parent, change[:1], "cmd")


def test_summary_rejects_mixed_costs_and_one_commit_for_both_sides():
    parent = [fake_run("aaa", 3.0), fake_run("aaa", 3.0, depth=9)]
    with pytest.raises(ValueError, match="model costs"):
        bench_summary.summarise(parent, [fake_run("bbb", 2.0)], "cmd")
    with pytest.raises(ValueError, match="--change-commit"):
        bench_summary.summarise([fake_run("aaa", 3.0)], [fake_run("aaa", 2.0)], "cmd")
    summary = bench_summary.summarise([fake_run("aaa", 3.0)], [fake_run("aaa", 2.0)],
                                      "cmd", change_commit="working tree on aaa")
    assert summary["change"]["commit"] == "working tree on aaa"
