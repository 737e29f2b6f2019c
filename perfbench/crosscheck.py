"""Check the benchmark's model costs against ``spatialtree run``.

    python3 perfbench/crosscheck.py [--seed N]

For one operation per workload, runs the CLI in-process on the same tree,
queries, seed, curve and order, and compares its energy, depth and messages
with the benchmark's own run of that operation.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import run

# workload -> (benchmark op, CLI arguments besides --seed and --trace, traced)
CASES = {
    "lca-65k": ("lca/random-attachment",
                ["--algorithm", "lca", "--kind", "random-attachment", "--n", "65535"],
                False),
    "layout-65k": ("layout/random-attachment",
                   ["--algorithm", "layout", "--kind", "random-attachment", "--n", "65535"],
                   False),
    "shapes-traced": ("treefix/caterpillar/lf",
                      ["--algorithm", "treefix", "--kind", "caterpillar", "--n", "16383",
                       "--curve", "zorder", "--audit-memory"],
                      True),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args(argv)
    wl = run.import_library()
    from spatialtree import cli

    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    bad = 0
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="tmp-") as tmp:
        for workload, (op_name, cli_args, traced) in CASES.items():
            op = next(o for o in wl.setup(workload, args.seed, tmp) if o.name == op_name)
            out, s = op.run()
            err = op.check(out, s)
            rep = s.report()
            mine = {"energy": rep.energy, "depth": rep.depth, "messages": rep.messages}

            report = os.path.join(tmp, "cli.json")
            argv_cli = ["run", *cli_args, "--seed", str(args.seed), "--format", "json",
                        "--out", report]
            if traced:
                argv_cli += ["--trace", os.path.join(tmp, "cli-trace.jsonl")]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv_cli)
            with open(report) as fh:
                row = json.load(fh)[0]
            theirs = {k: row[k] for k in mine}
            same = code == 0 and err is None and mine == theirs
            bad += not same
            print(f"{'ok' if same else 'MISMATCH'} {workload} {op_name}: "
                  f"benchmark {mine}, spatialtree run {theirs}"
                  + (f", check: {err}" if err else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
