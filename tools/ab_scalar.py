"""In-process A/B timing of the scalar constructors of two source trees.

Loads each tree's ``src/blochvar`` under a package name of its own
(``blochvar_a``, ``blochvar_b``) in one interpreter, which works because
the package's imports are relative, then times, in interleaved rounds:

- ``HermitianMatrix`` on a 2x2 density matrix;
- ``state_from_matrix`` of that matrix;
- ``observable_from_bloch`` of a unit vector;
- one criterion-3 sample: a pure or mixed state, two observables and
  ``check_theorem1``, averaged over streams 0..199 of seed 7.

Timings taken in separate processes drift far more between runs than
the difference between two nearby trees, so both trees run in every
round, back to back and in alternating order, and are timed in CPU time
(``time.process_time``).  It prints each tree's median over the rounds
in microseconds, the parent's interquartile range, and the median and
interquartile range of the rounds' change/parent ratios, whose pairs
are close enough in time to share most of the machine's drift.

Run from the repository root, for example against a checkout of the
parent commit made with ``git archive``:

    python3 tools/ab_scalar.py PARENT_TREE CHANGE_TREE [--rounds 15]
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

_CALLS = 1000  # calls of a constructor per round
_SAMPLES = 200  # criterion-3 samples per round


def load(tree: str, name: str):
    """``tree``/src/blochvar imported as the package ``name``."""
    init = Path(tree) / "src" / "blochvar" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workloads(bv):
    """The timed calls of one tree: name -> (function, calls per run)."""
    basis = bv.basis_for(2)
    rho = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
    matrix = bv.HermitianMatrix(rho)
    vec = np.array([0.48, -0.6, 0.64])

    def hermitian():
        for _ in range(_CALLS):
            bv.HermitianMatrix(rho)

    def state():
        for _ in range(_CALLS):
            bv.state_from_matrix(matrix, basis)

    def observable():
        for _ in range(_CALLS):
            bv.observable_from_bloch(vec, basis)

    def criterion3():
        for i in range(_SAMPLES):
            rng = bv.Xoshiro256pp(7, stream=i)
            draw = bv.draw_pure if i % 2 == 0 else bv.draw_mixed
            s = draw(rng, basis)
            bv.check_theorem1(bv.draw_observable(rng, basis), bv.draw_observable(rng, basis), s)

    return {
        "HermitianMatrix": (hermitian, _CALLS),
        "state_from_matrix": (state, _CALLS),
        "observable_from_bloch": (observable, _CALLS),
        "criterion-3 sample": (criterion3, _SAMPLES),
    }


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--rounds", type=int, default=15, help="interleaved rounds (at least 5)")
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error("--rounds must be at least 5")
    trees = {"parent": workloads(load(args.parent, "blochvar_a")),
             "change": workloads(load(args.change, "blochvar_b"))}
    times = {side: {name: [] for name in trees[side]} for side in trees}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in trees["parent"]:
            for side in order:
                fn, calls = trees[side][name]
                start = time.process_time()
                fn()
                times[side][name].append((time.process_time() - start) / calls * 1e6)
    print(f"medians of {args.rounds} interleaved rounds, us per call")
    print(f"{'workload':<24}{'parent':>9}{'change':>9}{'parent IQR':>16}{'paired ratio, IQR':>26}")
    for name in trees["parent"]:
        a, b = times["parent"][name], times["change"][name]
        lo, hi = _quartiles(a)
        ratios = [y / x for x, y in zip(a, b)]
        rlo, rhi = _quartiles(ratios)
        print(f"{name:<24}{statistics.median(a):9.2f}{statistics.median(b):9.2f}"
              f"{lo:8.2f}-{hi:<7.2f}{statistics.median(ratios):11.3f} {rlo:.3f}-{rhi:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
