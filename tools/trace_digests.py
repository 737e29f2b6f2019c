"""Print the model cost and a digest of the message trace of every algorithm
on every generated tree kind, through the ``spatialtree`` command line.

    PYTHONPATH=src python3 tools/trace_digests.py --n 3000 --seed 3

Each line is one ``spatialtree run --algorithm A --kind K --n N --seed S
--trace FILE``, run through ``spatialtree.cli.main`` in this process:

    A K n=N energy=E depth=D messages=M sha256=H sorted=S

where H is the sha256 of the streamed trace file and S the sha256 of its
lines in sorted order, as the golden cost table hashes sorted events: a
change that only reorders events keeps S and changes H.  A perfect binary
tree needs n = 2^h - 1, so its lines use the largest such n up to N.  A
run that exits non-zero prints its exit code and error line instead.

The package is imported from ``PYTHONPATH``, so running the script against
two source trees and diffing the output shows whether a change kept every
cost and every trace byte, or with equal ``sorted=`` digests every event:

    PYTHONPATH=old/src python3 tools/trace_digests.py --n 3000 --seed 3 > old.txt
    PYTHONPATH=new/src python3 tools/trace_digests.py --n 3000 --seed 3 > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from spatialtree.cli import ALGORITHMS, main
from spatialtree.trees import GENERATOR_KINDS


def tree_size(kind: str, n: int) -> int:
    """n, or for a perfect binary tree the largest 2^h - 1 up to n."""
    return (1 << ((n + 1).bit_length() - 1)) - 1 if kind == "perfect-binary" else n


def sorted_sha256(data: bytes) -> str:
    """The sha256 of a trace's lines in sorted order, whatever their order."""
    return hashlib.sha256(b"".join(sorted(data.splitlines(keepends=True)))).hexdigest()


def digest_line(algorithm: str, kind: str, n: int, seed: int) -> str:
    """Run one traced CLI run in a temporary directory and describe it."""
    n = tree_size(kind, n)
    with tempfile.TemporaryDirectory() as tmp:
        trace, report = Path(tmp, "trace.jsonl"), Path(tmp, "report.json")
        err = io.StringIO()
        # the run's result lines go to stdout, which this script keeps
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--algorithm", algorithm, "--kind", kind, "--n", str(n),
                         "--seed", str(seed), "--trace", str(trace),
                         "--format", "json", "--out", str(report)])
        head = f"{algorithm} {kind} n={n}"
        if code:
            return f"{head} exit={code} {err.getvalue().strip()}"
        row = json.loads(report.read_text())[0]
        data = trace.read_bytes()
    return (f"{head} energy={row['energy']} depth={row['depth']} "
            f"messages={row['messages']} sha256={hashlib.sha256(data).hexdigest()} "
            f"sorted={sorted_sha256(data)}")


def main_digests(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for algorithm in ALGORITHMS:
        for kind in GENERATOR_KINDS:
            print(digest_line(algorithm, kind, args.n, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
