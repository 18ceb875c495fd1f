"""In-process A/B timing of the scalar constructors of two source trees.

Loads each tree's ``src/blochvar`` under a package name of its own
(``blochvar_a``, ``blochvar_b``) in one interpreter, which works because
the package's imports are relative, then times, in interleaved rounds:

- ``HermitianMatrix`` on a 2x2 density matrix;
- ``state_from_matrix`` of that matrix;
- ``observable_from_bloch`` of a unit vector;
- one criterion-3 sample: a pure or mixed state, two observables and
  ``check_theorem1``, averaged over streams 0..199 of seed 7;
- each public scalar checker of ``relations``, and ``variance_matrix``,
  ``variance_bloch`` and ``vector_angle``, on fixed operands drawn from
  seed 7: the qubit checkers at N = 2 (a mixed state, or the pure or
  completely mixed one the checker requires), and ``check_appendix_c``
  (an accepted appendix-c draw) and ``robertson_bound`` at N = 3.

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

_CALLS = 1000  # calls of a constructor or checker per round
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

    timed = {
        "HermitianMatrix": (hermitian, _CALLS),
        "state_from_matrix": (state, _CALLS),
        "observable_from_bloch": (observable, _CALLS),
        "criterion-3 sample": (criterion3, _SAMPLES),
    }
    for name, (fn, args) in _checker_operands(bv).items():
        timed[name] = (_repeated(fn, args), _CALLS)
    return timed


def _checker_operands(bv):
    """name -> (scalar checker, its fixed operands)."""
    r = bv.relations
    basis, basis3 = bv.basis_for(2), bv.basis_for(3)
    rng = bv.Xoshiro256pp(7, stream=1)
    a, b = bv.draw_observable(rng, basis), bv.draw_observable(rng, basis)
    mixed, pure = bv.draw_mixed(rng, basis), bv.draw_pure(rng, basis)
    a3, b3, zero_means = bv.engine._appendix_c_draw(bv.Xoshiro256pp(7, stream=2), basis3, 2)
    return {
        "check_triangle": (r.check_triangle, (a, b, mixed)),
        "check_theorem1": (r.check_theorem1, (a, b, mixed)),
        "check_mixed_limit": (r.check_mixed_limit, (a, b, bv.completely_mixed(basis))),
        "check_pure_limit": (r.check_pure_limit, (a, b, pure)),
        "check_unit_vector_relation": (r.check_unit_vector_relation, (1.1, 0.3, 0.6)),
        "check_three_obs_equality": (r.check_three_observable_equality, (1.1, pure)),
        "check_appendix_b": (r.check_appendix_b, (mixed,)),
        "check_appendix_c N=3": (r.check_appendix_c, (a3, b3, zero_means, basis3)),
        "robertson_bound N=3": (r.robertson_bound, (a3, b3, bv.draw_mixed(rng, basis3))),
        "state_dependent_bound": (r.state_dependent_bound, (a, b, pure)),
        "check_unit_vector_state": (r.check_unit_vector_state, (a, b, pure)),
        "effective_axis_angle": (r.effective_axis_angle, (a, b, pure)),
        "scan_pair_point": (r.scan_pair_point, (a, b, mixed, 0)),
        "scan_triple_point": (r.scan_triple_point, (1.1, pure, 0)),
        "variance_matrix": (bv.variance_matrix, (a, mixed)),
        "variance_bloch": (bv.variance_bloch, (a, mixed, basis)),
        "vector_angle": (bv.vector_angle, (a.a, b.a)),
    }


def _repeated(fn, args):
    def run():
        for _ in range(_CALLS):
            fn(*args)

    return run


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
    print(f"{'workload':<28}{'parent':>9}{'change':>9}{'parent IQR':>16}{'paired ratio, IQR':>26}")
    for name in trees["parent"]:
        a, b = times["parent"][name], times["change"][name]
        lo, hi = _quartiles(a)
        ratios = [y / x for x, y in zip(a, b)]
        rlo, rhi = _quartiles(ratios)
        print(f"{name:<28}{statistics.median(a):9.2f}{statistics.median(b):9.2f}"
              f"{lo:8.2f}-{hi:<7.2f}{statistics.median(ratios):11.3f} {rlo:.3f}-{rhi:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
