"""``tools/trace_digests.py``: one line per algorithm and tree kind, whose
digests are those of the run's trace as ``SimState.dump_trace`` writes it,
byte for byte and with its lines sorted."""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from spatialtree import cli
from spatialtree.curves import CurveKind
from spatialtree.trees import GENERATOR_KINDS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import trace_digests  # noqa: E402

LINE = re.compile(r"(\S+) (\S+) n=(\d+) energy=(\d+) depth=(\d+) messages=(\d+) "
                  r"sha256=([0-9a-f]{64}) sorted=([0-9a-f]{64})")


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_digest_is_the_in_memory_trace_dump(tmp_path, algorithm, kind):
    n, seed = trace_digests.tree_size(kind, 20), 3
    line = trace_digests.digest_line(algorithm, kind, 20, seed)
    args = cli.make_parser().parse_args(["run", "--algorithm", algorithm, "--kind", kind,
                                         "--n", str(n), "--seed", str(seed)])
    sim, _, _ = cli._execute(args, cli._load_tree(args), CurveKind(args.curve), False, True)
    sim.dump_trace(tmp_path / "trace.jsonl")
    data = (tmp_path / "trace.jsonl").read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    ordered = hashlib.sha256(b"".join(sorted(data.splitlines(keepends=True)))).hexdigest()
    assert LINE.fullmatch(line).groups() == (algorithm, kind, str(n), str(sim.energy),
                                             str(sim.depth), str(sim.messages), sha, ordered)


def test_sorted_digest_ignores_the_order_of_lines():
    lines = [b'{"src": 1, "dst": 0, "cost": 1, "depth": 1}\n',
             b'{"src": 2, "dst": 0, "cost": 2, "depth": 1}\n']
    forward, backward = b"".join(lines), b"".join(reversed(lines))
    assert trace_digests.sorted_sha256(forward) == trace_digests.sorted_sha256(backward)
    assert hashlib.sha256(forward).hexdigest() != hashlib.sha256(backward).hexdigest()


def test_one_line_per_algorithm_and_kind(capsys):
    assert trace_digests.main_digests(["--n", "7", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [LINE.fullmatch(ln).groups()[:3] for ln in lines] == [
        (a, k, "7") for a in cli.ALGORITHMS for k in GENERATOR_KINDS]


def test_a_failing_run_prints_its_exit_code():
    line = trace_digests.digest_line("lca", "path", 5000000, 0)
    assert line.startswith("lca path n=5000000 exit=2 error: n = 5000000 is above the limit")
