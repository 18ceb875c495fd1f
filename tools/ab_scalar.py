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

With ``--lanes`` it times the lanes engine instead: one job of each kind
of the bench's ``qubit-fuzz`` workload, ``engine.fuzz`` of each relation
at N = 2 with the sample count ``bench/workloads.py`` lists for it in
``QUBIT_SAMPLES`` (read, never written), seed 7 and the axis angle
``verify`` defaults to.  Beside the timings it prints each tree's C
calls and Python calls per job, counted with ``sys.setprofile`` over one
job.

Timings taken in separate processes drift far more between runs than
the difference between two nearby trees, so both trees run in every
round, back to back and in alternating order, and are timed in CPU time
(``time.process_time``).  It prints each tree's median over the rounds
in microseconds, the parent's interquartile range, and the median and
interquartile range of the rounds' change/parent ratios, whose pairs
are close enough in time to share most of the machine's drift.

Run from the repository root, for example against a checkout of the
parent commit made with ``git archive``:

    python3 tools/ab_scalar.py PARENT_TREE CHANGE_TREE [--rounds 15] [--lanes]
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

_CALLS = 1000  # calls of a constructor or checker per round
_SAMPLES = 200  # criterion-3 samples per round
_JOBS = 20  # qubit-fuzz jobs of each kind per round, with --lanes
_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
    # An accepted appendix-c draw, built: the draws of a row that checks nothing.
    a3, b3, zero_means = bv.engine._sample(bv.engine.Relation(None, None, None), basis3, 7, 2)
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


def _repeated(fn, args, calls=_CALLS):
    def run():
        for _ in range(calls):
            fn(*args)

    return run


def lanes_workloads(bv):
    """The timed jobs of one tree, one per ``qubit-fuzz`` job kind:
    name -> (function, jobs per run)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up
    spec.loader.exec_module(bench)
    return {
        f"{relation} ({samples})": (
            _repeated(bv.engine.fuzz, (relation, 2, samples, 7, math.pi / 4.0), _JOBS), _JOBS
        )
        for relation, samples in bench.QUBIT_SAMPLES.items()
    }


def calls_per_run(fn) -> tuple[int, int]:
    """(C calls, Python calls) that one run of ``fn`` makes, counted by a
    ``sys.setprofile`` hook."""
    events = Counter()

    def hook(frame, event, arg):
        events[event] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return events["c_call"], events["call"]


def _quartiles(xs):
    if len(xs) < 2:  # one round: its value is every quartile
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent: str, change: str, rounds: int, lanes: bool = False) -> None:
    """Time both trees in ``rounds`` interleaved rounds and print the table
    (see the module docs)."""
    build = lanes_workloads if lanes else workloads
    trees = {"parent": build(load(parent, "blochvar_a")),
             "change": build(load(change, "blochvar_b"))}
    times = {side: {name: [] for name in trees[side]} for side in trees}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in trees["parent"]:
            for side in order:
                fn, calls = trees[side][name]
                start = time.process_time()
                fn()
                times[side][name].append((time.process_time() - start) / calls * 1e6)
    unit = "job" if lanes else "call"
    print(f"medians of {rounds} interleaved rounds, us per {unit}")
    print(f"{'workload':<28}{'parent':>9}{'change':>9}{'parent IQR':>16}{'paired ratio, IQR':>26}"
          + (f"{'parent C, Py calls':>22}{'change C, Py calls':>22}" if lanes else ""))
    for name in trees["parent"]:
        a, b = times["parent"][name], times["change"][name]
        lo, hi = _quartiles(a)
        ratios = [y / x for x, y in zip(a, b)]
        rlo, rhi = _quartiles(ratios)
        line = (f"{name:<28}{statistics.median(a):9.2f}{statistics.median(b):9.2f}"
                f"{lo:8.2f}-{hi:<7.2f}{statistics.median(ratios):11.3f} {rlo:.3f}-{rhi:.3f}")
        if lanes:
            counts = [calls_per_run(trees[side][name][0]) for side in ("parent", "change")]
            line += "".join(f"{f'{c // _JOBS:,}, {p // _JOBS:,}':>22}" for c, p in counts)
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--rounds", type=int, default=15, help="interleaved rounds (at least 5)")
    parser.add_argument("--lanes", action="store_true", help="time qubit-fuzz jobs instead")
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error("--rounds must be at least 5")
    compare(args.parent, args.change, args.rounds, args.lanes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
