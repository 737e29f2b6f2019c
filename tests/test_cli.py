import csv
import io
import json

import pytest

from spatialtree import cli, layout
from spatialtree.cli import CSV_FIELDS, main
from spatialtree.lca import LCA_WORDS
from spatialtree.sim import SimState
from spatialtree.trees import GENERATOR_KINDS, RootedTree, format_tree

FIGURE_PARENTS = [-1, 0, 1, 1, 0, 4, 4, 6]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_path_exact_bytes(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, _, _ = run_cli(capsys, "gen", "--kind", "path", "--n", "3",
                         "--out", str(out))
    assert code == 0
    assert out.read_text() == "3\n-1 0 1\n"


def test_gen_star_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "--kind", "star", "--n", "4")
    assert code == 0
    assert stdout == "4\n-1 0 0 0\n"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run_cli(capsys, "gen", "--kind", "random-attachment", "--n", "100",
            "--seed", "7", "--out", str(a))
    run_cli(capsys, "gen", "--kind", "random-attachment", "--n", "100",
            "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_kind_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "perfect-binary", "--n", "6")
    assert code == 2
    assert "error" in err


def test_run_treefix_path_check(capsys):
    code, stdout, _ = run_cli(capsys, "run", "--algorithm", "treefix",
                              "--kind", "path", "--n", "3", "--check")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[:3] == ["0 3", "1 2", "2 1"]
    header = lines[3]
    assert header == ",".join(CSV_FIELDS)


def test_run_lca_figure_tree_answer_line(tmp_path, capsys):
    tree = tmp_path / "fig.txt"
    tree.write_text(format_tree(RootedTree(list(FIGURE_PARENTS))))
    qfile = tmp_path / "q.txt"
    qfile.write_text("2 3\n")
    code, stdout, _ = run_cli(capsys, "run", "--algorithm", "lca",
                              "--tree", str(tree), "--queries", str(qfile),
                              "--check")
    assert code == 0
    assert stdout.splitlines()[0] == "2 3 1"


def test_run_broadcast_light_first_beats_bfs(tmp_path, capsys):
    energies = {}
    for order in ("light-first", "bfs"):
        out = tmp_path / f"{order}.csv"
        code, _, _ = run_cli(capsys, "run", "--algorithm", "broadcast",
                             "--kind", "perfect-binary", "--n", str(2 ** 12 - 1),
                             "--order", order, "--out", str(out))
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        energies[order] = int(row["energy"])
    assert energies["light-first"] < energies["bfs"]


def test_run_check_failure_is_exit_1(tmp_path, capsys, monkeypatch):
    import spatialtree.cli as cli_mod
    monkeypatch.setattr(cli_mod, "subtree_sums", lambda t, v: [0] * t.n)
    code, _, err = run_cli(capsys, "run", "--algorithm", "treefix",
                           "--kind", "path", "--n", "3", "--check")
    assert code == 1
    assert "check failed" in err


def test_internal_invariant_failure_is_exit_3(capsys, monkeypatch):
    import spatialtree.cli as cli_mod

    def broken(*_args):
        raise RuntimeError("conflicting answers for one query")

    monkeypatch.setattr(cli_mod, "batched_lca", broken)
    code, _, err = run_cli(capsys, "run", "--algorithm", "lca",
                           "--kind", "path", "--n", "8")
    assert code == 3
    assert err == "internal error: conflicting answers for one query\n"


def test_csv_schema_and_json_fields(tmp_path, capsys):
    out = tmp_path / "r.csv"
    run_cli(capsys, "run", "--algorithm", "reduce", "--kind", "star",
            "--n", "16", "--out", str(out))
    text = out.read_text()
    assert text.splitlines()[0] == ("n,algorithm,curve,order,seed,energy,depth,"
                                    "messages,rounds,wall_time_ms,"
                                    "mean_neighbor_distance")
    jout = tmp_path / "r.json"
    run_cli(capsys, "run", "--algorithm", "reduce", "--kind", "star",
            "--n", "16", "--format", "json", "--out", str(jout))
    rows = json.loads(jout.read_text())
    assert isinstance(rows, list) and set(rows[0]) == set(CSV_FIELDS)


def test_sweep_rows_and_determinism(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--algorithm", "broadcast",
                         "--kind", "perfect-binary", "--n-list", "255,1023,4095",
                         "--reps", "3", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["n"] for r in rows] == ["255"] * 3 + ["1023"] * 3 + ["4095"] * 3
    for n in ("255", "1023", "4095"):
        energies = {r["energy"] for r in rows if r["n"] == n}
        assert len(energies) == 1  # identical across repetitions


def test_sweep_energy_ratios_split_orders(tmp_path, capsys):
    def energies(order):
        out = tmp_path / f"{order}.csv"
        run_cli(capsys, "sweep", "--algorithm", "broadcast",
                "--kind", "perfect-binary", "--n-list", "255,1023,4095",
                "--order", order, "--out", str(out))
        return [int(r["energy"]) for r in csv.DictReader(io.StringIO(out.read_text()))]

    light = energies("light-first")
    for a, b in zip(light, light[1:]):
        assert b / a <= 4.5
    bfs = energies("bfs")
    for a, b in zip(bfs, bfs[1:]):
        assert b / a >= 6.0


def test_run_listrank_and_layout(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "run", "--algorithm", "listrank",
                         "--kind", "path", "--n", "256", "--check")
    assert code == 0
    out = tmp_path / "lay.csv"
    code, stdout, _ = run_cli(capsys, "run", "--algorithm", "layout",
                              "--kind", "caterpillar", "--n", "32", "--check",
                              "--out", str(out))
    assert code == 0
    dump = stdout.splitlines()
    assert len(dump) == 32
    assert all(len(line.split()) == 4 for line in dump)


def test_trace_export(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "run", "--algorithm", "broadcast",
                         "--kind", "star", "--n", "8", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines
    ev = json.loads(lines[0])
    assert set(ev) == {"src", "dst", "cost", "depth"}


def test_only_repetition_0_is_traced(tmp_path, capsys, monkeypatch):
    traces = []
    execute = cli._execute

    def keep_trace(args, t, curve, dump, trace):
        traces.append(trace)
        return execute(args, t, curve, dump, trace)

    monkeypatch.setattr(cli, "_execute", keep_trace)
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    argv = ["run", "--algorithm", "treefix", "--kind", "random-attachment", "--n", "300",
            "--reps", "3", "--format", "json", "--out", str(report)]
    code, _, _ = run_cli(capsys, *argv, "--trace", str(trace))
    assert code == 0
    first, *later = traces
    assert first.name == str(trace) and first.closed  # streamed, then closed
    assert later == [False, False]
    rows = json.loads(report.read_text())
    assert len({(r["energy"], r["depth"], r["messages"]) for r in rows}) == 1
    assert len(trace.read_text().splitlines()) == rows[0]["messages"]
    traces.clear()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and traces == [False] * 3


def test_sweep_rejects_tree_file(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text(format_tree(RootedTree(list(FIGURE_PARENTS))))
    code, _, err = run_cli(capsys, "sweep", "--algorithm", "treefix",
                           "--tree", str(tree), "--n-list", "8,16")
    assert code == 2
    assert "error" in err


def test_reps_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "run", "--algorithm", "treefix",
                           "--kind", "path", "--n", "3", "--reps", "0")
    assert code == 2
    assert "reps" in err


def test_tree_file_values_are_used(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("3\n-1 0 1\n5 6 7\n")
    code, stdout, _ = run_cli(capsys, "run", "--algorithm", "treefix",
                              "--tree", str(tree), "--check")
    assert code == 0
    assert stdout.splitlines()[:3] == ["0 18", "1 13", "2 7"]


def test_audit_memory_flag(capsys):
    code, _, err = run_cli(capsys, "run", "--algorithm", "treefix",
                           "--kind", "star", "--n", "64", "--audit-memory")
    assert code == 0
    assert "violation" not in err


AUDITED_RUNS = [(algorithm, order) for algorithm in ("broadcast", "reduce")
                for order in ("light-first", "bfs", "dfs")] + [("lca", "light-first")]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("algorithm,order", AUDITED_RUNS)
def test_audit_memory_covers_the_virtual_tree_kernels(capsys, monkeypatch, algorithm,
                                                      order, kind):
    sims = []

    class Recorded(SimState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.noted = set()  # every word count noted
            sims.append(self)

        def note_words_many(self, positions, words):
            self.noted.add(words)
            super().note_words_many(positions, words)

    monkeypatch.setattr(cli, "SimState", Recorded)
    code, _, err = run_cli(capsys, "run", "--algorithm", algorithm, "--kind", kind,
                           "--n", "1023", "--order", order, "--audit-memory")
    assert code == 0 and "violation" not in err
    assert len(sims) == 1
    assert sims[0].violations == [] and sims[0].max_words > 0
    if algorithm == "lca":
        # LCA's own steps note their state, not only the kernels they call
        assert LCA_WORDS in sims[0].noted and sims[0].max_words >= LCA_WORDS


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("algorithm", ["layout", "listrank"])
def test_audit_memory_covers_layout_and_list_ranking(capsys, monkeypatch, algorithm, kind):
    sims = []

    class Recorded(SimState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    # list ranking's state is built by the CLI, the layout's by build_light_first
    monkeypatch.setattr(cli, "SimState", Recorded)
    monkeypatch.setattr(layout, "SimState", Recorded)
    code, _, err = run_cli(capsys, "run", "--algorithm", algorithm, "--kind", kind,
                           "--n", "1023", "--audit-memory")
    assert code == 0 and "violation" not in err
    assert len(sims) == 1
    assert sims[0].violations == [] and sims[0].max_words > 0


def test_lca_requires_light_first(capsys):
    code, _, err = run_cli(capsys, "run", "--algorithm", "lca",
                           "--kind", "path", "--n", "8", "--order", "bfs")
    assert code == 2
    assert "light-first" in err


def forbid_tree_building(monkeypatch):
    import spatialtree.trees as trees_mod

    def refuse(*_args, **_kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(trees_mod, "gen_tree", refuse)
    monkeypatch.setattr(trees_mod, "parse_tree", refuse)


def test_oversized_n_is_rejected_before_any_tree_is_built(tmp_path, capsys, monkeypatch):
    from spatialtree.cli import MAX_N
    forbid_tree_building(monkeypatch)
    too_big = str(MAX_N + 1)
    tree = tmp_path / "big.txt"
    tree.write_text(f"\n{too_big}\n-1\n")
    for argv in (("gen", "--kind", "path", "--n", too_big),
                 ("run", "--algorithm", "treefix", "--kind", "path", "--n", too_big),
                 ("sweep", "--algorithm", "treefix", "--kind", "path",
                  "--n-list", f"8,{too_big}"),
                 ("run", "--algorithm", "treefix", "--tree", str(tree))):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert stdout == ""
        assert err == f"error: n = {too_big} is above the limit of {MAX_N} vertices\n"


def test_refs_protocol_disagreement_is_exit_3(capsys, monkeypatch):
    from test_virtual_tree import tamper_one_length
    tamper_one_length(monkeypatch, 8, 0)  # the star's one block length
    code, _, err = run_cli(capsys, "run", "--algorithm", "lca",
                           "--kind", "star", "--n", "9")
    assert code == 3
    assert err == "internal error: reference protocol disagrees with direct transform\n"


@pytest.mark.parametrize("text", ["0 1 2\n", "0 x\n", "2 3\n0 8\n",
                                  "1 2\n1 3\n1 4\n1 5\n1 6\n"])
def test_bad_query_file_is_exit_2_with_one_error_line(tmp_path, capsys, text):
    tree = tmp_path / "fig.txt"
    tree.write_text(format_tree(RootedTree(list(FIGURE_PARENTS))))
    qfile = tmp_path / "q.txt"
    qfile.write_text(text)
    code, stdout, err = run_cli(capsys, "run", "--algorithm", "lca",
                                "--tree", str(tree), "--queries", str(qfile))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_query_past_int64_is_out_of_range_exit_2(tmp_path, capsys):
    tree = tmp_path / "fig.txt"
    tree.write_text(format_tree(RootedTree(list(FIGURE_PARENTS))))
    qfile = tmp_path / "q.txt"
    qfile.write_text("0 99999999999999999999\n")
    code, stdout, err = run_cli(capsys, "run", "--algorithm", "lca",
                                "--tree", str(tree), "--queries", str(qfile))
    assert code == 2 and stdout == ""
    assert err == "error: query (0, 99999999999999999999) out of range\n"
