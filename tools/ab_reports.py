"""Byte-for-byte comparison of the CLI's reports between two source trees.

Runs one matrix of ``blochvar`` commands on each tree, every command in
an interpreter of its own with ``PYTHONPATH`` set to the tree's ``src``
and in an empty working directory of its own, and compares the exit
codes, stdout, stderr and every file the command writes.  The value of
``"wall_time_s"`` is blanked first, as it is the one field that differs
between two runs of one tree.  The matrix:

- ``verify`` of every relation on seeds 0 and 5, at each N it admits up
  to 10 (``engine.RELATIONS``, read from the change's tree);
- ``verify appendix-c --samples 5`` at N = 3, 6 and 10 on seeds 0 and
  5: a chunk that small draws several tries a lane in its first
  rejection round, where 500 samples draw one;
- ``verify robertson --samples 200`` and ``verify appendix-c --samples
  100`` at the dimension cap, N = 16, on seed 0: the stacked kernels'
  shapes past numpy's 8,192-element iterator buffer, where a row's sum
  can split (the wedge's one-row blocks, Tr[A²ρ] of 4,096 products);
- the four region scans (pair on pure and on mixed states, pair with
  ``--slice-da2``, and triple), each with ``--csv``, ``--json`` and
  ``--out``;
- ``basis --out`` at N = 2, 3, 10 and 16, in JSON and in CSV;
- ``compare`` on four states and three observable pairs, with ``--da2``,
  on two unit pairs whose |a|² is not 1 in binary (the axis angle's
  last bit shows in ``--out``), on an observable of norm about 1e3, on
  one whose squares overflow, and on JSON matrices whose ``dim`` is
  oversized (10**6 for four entries) or not an integer (2.5).

It prints each run that differs, with the parts that differ, and a
summary line, and exits 1 if any run differs.  Run from the repository
root, for example against a checkout of the parent commit made with
``git archive``:

    python3 tools/ab_reports.py PARENT_TREE CHANGE_TREE
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]*')
_MAX_N = 10
_LARGE = {"dim": 2, "re": [2000.1, 1500.3, 1500.3, 700.9], "im": [0, -999.7, 999.7, 0]}


def _relation_dims(tree: str) -> dict:
    """relation -> the N up to 10 it admits, read from ``tree``."""
    code = (
        "import json; from blochvar import engine; "
        f"print(json.dumps({{k: r.dims or list(range(2, {_MAX_N} + 1)) "
        "for k, r in engine.RELATIONS.items()}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def runs(tree: str, samples: int = 500) -> dict[str, list[str]]:
    """name -> CLI arguments of every run of the matrix (see the module
    docs); the relations and their N are ``tree``'s."""
    matrix = {}
    for relation, dims in sorted(_relation_dims(tree).items()):
        for dim in dims:
            for seed in (0, 5):
                matrix[f"verify {relation} N={dim} seed={seed}"] = [
                    "verify", relation, "--dim", str(dim), "--samples", str(samples),
                    "--seed", str(seed), "--out", "report.json",
                ]
    for dim in (3, 6, 10):
        for seed in (0, 5):
            matrix[f"verify appendix-c N={dim} seed={seed} samples=5"] = [
                "verify", "appendix-c", "--dim", str(dim), "--samples", "5",
                "--seed", str(seed), "--out", "report.json",
            ]
    for relation, samples_at_cap in (("robertson", 200), ("appendix-c", 100)):
        matrix[f"verify {relation} N=16 seed=0 samples={samples_at_cap}"] = [
            "verify", relation, "--dim", "16", "--samples", str(samples_at_cap),
            "--seed", "0", "--out", "report.json",
        ]
    files = ["--csv", "samples.csv", "--json", "occupancy.json", "--out", "report.json"]
    scans = {
        "pair pure": ["pair", "--theta-ab", "0.7"],
        "pair mixed": ["pair", "--theta-ab", "1.2", "--ensemble", "mixed", "--seed", "5"],
        "pair slice": ["pair", "--theta-ab", "0.4", "--slice-da2", "0.3"],
        "triple": ["triple", "--theta-ab", "0.9"],
    }
    for name, args in scans.items():
        matrix[f"region {name}"] = ["region", *args, "--samples", str(4 * samples), *files]
    for dim in (2, 3, 10, 16):
        for fmt in ("json", "csv"):
            matrix[f"basis N={dim} {fmt}"] = [
                "basis", "--dim", str(dim), "--format", fmt, "--out", f"basis.{fmt}"
            ]
    states = ["mixed", "pure:(0,0,1)", "bloch:(0.3,0.2,0.1)", "seed:3"]
    pairs = [("sigma1", "sigma2"), ("n:(1,1,0)", "sigma3"), ("n:(0.6,0,0.8)", "n:(0,1,0)")]
    for state in states:
        for a, b in pairs:
            matrix[f"compare {state} {a} {b}"] = ["compare", "--state", state, "--A", a, "--B", b]
    for state in ("seed:3", "pure:(0,0,1)"):
        matrix[f"compare {state} --da2"] = [
            "compare", "--state", state, "--A", "sigma1", "--B", "sigma2", "--da2", "0.5",
            "--out", "report.json",
        ]
    for name, a, b in (("unit pair", "n:(0.6,0.8,0)", "n:(0.28,0.96,0)"),
                       ("equal unit pair", "n:(0.28,0.96,0)", "n:(0.28,0.96,0)")):
        matrix[f"compare {name}"] = [
            "compare", "--state", "seed:3", "--A", a, "--B", b, "--out", "report.json"
        ]
    matrix["compare large-norm A"] = [
        "compare", "--state", "mixed", "--A", json.dumps(_LARGE), "--B", "sigma2"
    ]
    matrix["compare overflowing A"] = [
        "compare", "--state", "pure:(0,0,1)", "--A", "n:(1e200,0,0)", "--B", "sigma2"
    ]
    for name, dim in (("oversized", 10**6), ("non-integer", 2.5)):
        obs = json.dumps({"dim": dim, "re": [1.0, 0.0, 0.0, -1.0]})
        matrix[f"compare {name} dim"] = ["compare", "--state", "mixed", "--A", obs, "--B", "sigma1"]
    return matrix


def _env(tree: str) -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}


def _outcome(tree: str, args: list[str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one run on ``tree``,
    with ``wall_time_s`` blanked."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-m", "blochvar.cli", *args], cwd=cwd,
                              env=_env(tree), capture_output=True)
        outcome = {"exit": str(done.returncode).encode(), "stdout": done.stdout,
                   "stderr": done.stderr}
        for path in sorted(Path(cwd).iterdir()):
            outcome[path.name] = path.read_bytes()
    return {k: _WALL_TIME.sub(b'"wall_time_s": _', v) for k, v in outcome.items()}


def compare(parent: str, change: str, matrix: dict[str, list[str]]) -> list[str]:
    """Run ``matrix`` on both trees and print the runs that differ; returns
    their names."""
    differ = []
    for name, args in matrix.items():
        a, b = _outcome(parent, args), _outcome(change, args)
        parts = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if parts:
            differ.append(name)
            print(f"DIFFERS {name}: {', '.join(parts)} (exit {a['exit'].decode()} -> "
                  f"{b['exit'].decode()})")
    print(f"{len(matrix)} runs, {len(differ)} differ")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    args = parser.parse_args(argv)
    return 1 if compare(args.parent, args.change, runs(args.change)) else 0


if __name__ == "__main__":
    sys.exit(main())
