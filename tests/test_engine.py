"""The batched engine against the scalar per-stream path.

`blochvar verify` runs every relation on lanes (`XoshiroLanes`,
`StateBatch`/`ObservableBatch`, each relation's function on the rows)
at every N,
appendix-c's rejection draws included, their later tries side by side
from jumped lane states; the per-stream loop over `engine._sample`, which
replay also runs, stays as the oracle (`_scalar_only`).  These tests
pin:

* margins and `fuzz` summaries equal to the loop's bit for bit, across
  chunk boundaries, seeds 0 and 2**64 - 1 included, at N = 2 and at
  N = 3, 6 and 10;
* the lane RNG, narrowed generators (`take`), jumps (`ahead`) and
  segmented draws included, equal to `Xoshiro256pp`, with every engine
  path run with all draws segmented and with none;
* a sample's draws in one pass (`draw_batches`) equal to the same draws
  one after another, bad rows (an observable below `_MIN_NORM`) and end
  states included, every lane moved on by the plan's width, and
  observables built on stacked rows equal to their own builds;
* the same exception, raised for the same first failing stream;
* `fuzz`'s numpy reduction of the margins equal to Python's `min` and
  `max` over them in stream order;
* each relation's function, reduced as `engine.chunks` reduces it,
  flagging exactly the rows its scalar checker rejects, and both
  reaching the same function;
* the region scans on the same loop (`engine.chunks`): their scan
  points looked up at call time, floors and NaN margins included;
* each numpy-vs-scalar equality the engine relies on, at N = 2 and per
  N up to the dimension cap, so that a numpy or libm upgrade that
  breaks one fails here by name.
"""

import dataclasses
import inspect
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochvar import SampleConfig, basis_for, engine, iter_states, sampling
from blochvar import bloch, linalg, regions, relations, sun_basis, variance
from blochvar.errors import DimensionMismatch, NumericsError
from blochvar.linalg import per_element, row_dot
from blochvar.sampling import Xoshiro256pp, XoshiroLanes, draw_observable
from conftest import built, failure_ids

RELATIONS = sorted(engine.RELATIONS)
QUDIT_RELATIONS = sorted(r for r, entry in engine.RELATIONS.items() if entry.dims is None)
SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))


def _scalar_verdicts(relation, dim, samples, seed, theta_ab):
    # The per-stream oracle: sample i drawn from stream i and checked by
    # the scalar checkers, its margins as an array, as `engine._verdicts`
    # yields a chunk's.  Each verdict's flags are those `fuzz` reads off
    # its margin.
    basis = basis_for(dim)
    tol = engine.RELATIONS[relation].tol
    for i in range(samples):
        verdicts = engine._sample(relation, basis, seed, i, theta_ab)
        for v in verdicts:
            assert v.holds == (v.margin >= -tol)
            assert v.saturated == (abs(v.margin) <= relations.SATURATION_TOL)
        yield np.array([v.margin for v in verdicts])


def _scalar_only():
    """Patch that sends `verify` through the per-stream loop."""
    return mock.patch.object(engine, "_verdicts", _scalar_verdicts)


def _margins(relation, samples, seed, theta_ab=math.pi / 4.0, dim=2):
    return np.concatenate(list(engine._verdicts(relation, dim, samples, seed, theta_ab)))


def _summary_reprs(summary):
    return {key: repr(value) for key, value in summary.items()}


def _params(name):
    return list(inspect.signature(getattr(relations, name)).parameters)


# The private function that states each relation, which its public
# checker (or scan point) and the engine's rows both call.
_SHARED = {
    "check_triangle": "_triangle",
    "check_theorem1": "_theorem1",
    "check_mixed_limit": "_mixed_limit",
    "check_pure_limit": "_pure_limit",
    "check_three_observable_equality": "_three_observable_equality",
    "check_appendix_b": "_appendix_b",
    "check_appendix_c": "_appendix_c",
    "robertson_bound": "_robertson",
    "state_dependent_bound": "_state_dependent",
    "scan_pair_point": "_scan_pair_point",
    "scan_triple_point": "_scan_triple_point",
    "check_unit_vector_state": "_unit_vector_state",
}

# The checkers of _SHARED defined for qubits alone.
_QUBIT_ONLY = {
    "check_triangle", "check_theorem1", "check_mixed_limit", "check_pure_limit",
    "check_three_observable_equality", "check_appendix_b", "state_dependent_bound",
    "check_unit_vector_state", "scan_pair_point", "scan_triple_point",
}


def _scan_rows():
    """checker -> (row, given) of the rows the region scans run on
    ``engine.chunks``, recorded from a scan of two samples each."""
    rows = {}
    chunks = engine.chunks

    def record(row, basis, seed, count, **given):
        rows[row.check[0]] = (row, given)
        return chunks(row, basis, seed, count, **given)

    with mock.patch.object(engine, "chunks", record):
        for run, _, _ in _SCANS.values():
            run(SampleConfig(seed=0, dim=2, count=2, kind="haar_pure"))
    return rows


def _engine_rows():
    """checker -> (row, given) of every row the engine runs: verify's, at
    the axis angle 1.1, and the region scans'."""
    rows = {row.check[0]: (row, {"theta_ab": 1.1}) for row in engine.RELATIONS.values()}
    return {**rows, **_scan_rows()}


def test_every_lanes_checker_takes_its_scalar_twins_parameters():
    # Each row of the engine, verify's and the scans', names its scalar
    # checker and the function that states its relation, which takes the
    # checker's parameters by the same names, so that `engine._call`
    # passes both the same arguments; its dims are the N the checker
    # admits.  No lanes twin is left.
    rows = _engine_rows()
    assert set(rows) == set(_SHARED)
    for name, (row, _) in rows.items():
        assert row.shared == _SHARED[name] and _params(row.shared) == _params(name), name
        assert (row.dims == (2,)) == (name in _QUBIT_ONLY) and row.dims in {(2,), None}, name
    for module in (relations, variance):
        assert not [n for n in module.__all__ if n.endswith("_batch")]
    assert not hasattr(engine, "_lanes") and not hasattr(relations, "_require_qubit_rows")
    assert not hasattr(bloch, "repeat_observable")


def _lane_operands(dim, n=24):
    """Lanes operands for every parameter name of the checkers, from one
    ``draw_batches`` chunk at N = ``dim``, and row i's scalar operands.
    Mixed and pure states alternate and every third state is completely
    mixed (p = 0, so appendix-c's means vanish); A is zero on row 1.
    The scan points' fixed observables, ``A`` and ``B``, are row 0's,
    and ``index`` is the row."""
    basis = basis_for(dim)
    drawn, a, b = sampling.draw_batches(("alternating", _DIR, _DIR), XoshiroLanes(11, range(n)), basis)
    rho = np.where((np.arange(n) % 3 == 2)[:, None, None], np.eye(dim) / dim, drawn.rho)
    state = bloch.state_from_matrix_batch(rho, basis)
    a = bloch.observable_from_bloch_batch(np.where((np.arange(n) == 1)[:, None], 0.0, a.a), basis)
    b = bloch.observable_from_bloch_batch(b.a, basis)
    lanes = {"a": a, "b": b, "rho": state, "psi": state, "basis": basis, "theta_ab": 1.1,
             "index": np.arange(n)}
    rows = []
    for i in range(n):
        oa, ob = (bloch.observable_from_bloch(x.a[i], basis) for x in (a, b))
        rho_i = bloch.state_from_matrix(linalg.HermitianMatrix(rho[i]), basis)
        for obj, batch in ((oa, a), (ob, b)):
            assert np.array_equal(obj.matrix.array, batch.matrix[i]) and obj.norm2 == batch.norm2[i]
        assert np.array_equal(rho_i.rho.array, state.rho[i]) and np.array_equal(rho_i.p, state.p[i])
        rows.append({"a": oa, "b": ob, "rho": rho_i, "psi": rho_i, "index": i})
    lanes["A"], lanes["B"] = rows[0]["a"], rows[0]["b"]
    return lanes, rows


def _lane_args(name, lanes):
    """The arguments of ``name``, and of its function, of the operands
    ``lanes``."""
    return {p: lanes[p] for p in _params(name)}


def _row_args(args, row):
    """The scalar form of the lanes arguments ``args``: ``row``'s operand
    where it has one, else the argument all rows share."""
    return {p: row.get(p, args[p]) for p in args}


def _rows_raise(name, lanes, rows):
    """Check ``name`` against its function on the operands of
    ``_lane_operands``, reduced as the engine reduces it
    (``engine._lane_values``): at an N that ``name`` does not admit it
    raises DimensionMismatch on every row (None is returned); else the
    bad rows are the rows where ``name`` raises (returned) and the other
    margins are ``name``'s, bit for bit."""
    args = _lane_args(name, lanes)
    scalar = [_row_args(args, row) for row in rows]
    if name in _QUBIT_ONLY and lanes["basis"].dim != 2:
        for row_args in scalar:
            with pytest.raises(DimensionMismatch):
                getattr(relations, name)(**row_args)
        return None
    margins, bad = engine._lane_values(getattr(relations, _SHARED[name])(**args))
    margins = margins.reshape(len(rows), -1)  # a column per verdict or value
    raised = []
    for i, row_args in enumerate(scalar):
        try:
            got = getattr(relations, name)(**row_args)
        except (ValueError, ArithmeticError):
            assert bad[i], (name, i)
            raised.append(i)
            continue
        verdicts = got if isinstance(got, tuple) else (got,)
        expected = np.array([getattr(v, "margin", v) for v in verdicts])
        assert not bad[i] and margins[i].tobytes() == expected.tobytes(), (name, i)
    return raised


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_relation_dims_are_the_n_their_checkers_admit(dim):
    # `Relation.dims` is verify's fast-fail copy of what the checkers
    # refuse: a one-sample fuzz raises DimensionMismatch exactly at the N
    # a row's dims leave out.
    for name, row in engine.RELATIONS.items():
        admitted = row.dims is None or dim in row.dims
        try:
            engine.fuzz(name, dim, 1, 0, math.pi / 4.0)
        except DimensionMismatch:
            assert not admitted, name
        else:
            assert admitted, name


@pytest.mark.parametrize("dim", [3, 6])
def test_chunks_refuse_an_n_outside_dims_before_drawing(monkeypatch, dim):
    # At an N its dims leave out, every row of a relation fails its
    # checker's dimension check: `chunks` raises DimensionMismatch at
    # once, for verify's rows and the scans' alike, and draws nothing.
    rows = [entry for entry in _engine_rows().values() if entry[0].dims is not None]
    draws = _count_calls(monkeypatch, sampling, "draw_batches")
    for row, given in rows:
        with pytest.raises(DimensionMismatch, match=f"defined for N = 2, got dim {dim}$"):
            next(engine.chunks(row, basis_for(dim), 0, 5, **given))
    assert len(rows) == 10 and not draws


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("dim", [2, 3, 6, 10])
def test_twins_flag_exactly_the_rows_their_scalars_reject(dim):
    # Every checker of a row against its function on one chunk, as the
    # engine runs it: the checker raises DimensionMismatch at an N it
    # does not admit, and else the function's bad rows are the rows
    # where the checker raises and its other margins are the checker's,
    # bit for bit.
    lanes, rows = _lane_operands(dim)
    refused = {name for name in _SHARED if _rows_raise(name, lanes, rows) is None}
    # A function reads no input's bad flags (`engine.chunks` marks the
    # rows whose draws failed): with every flag set, its output is the same.
    flagged = {k: v._replace(bad=np.ones_like(v.bad)) if hasattr(v, "bad") else v
               for k, v in lanes.items()}
    for name in sorted(set(_SHARED) - refused):
        shared = getattr(relations, _SHARED[name])
        plain, marked = (
            engine._lane_values(shared(**_lane_args(name, ops))) for ops in (lanes, flagged)
        )
        assert [x.tobytes() for x in plain] == [x.tobytes() for x in marked], name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN rows
def test_unit_vector_relation_flags_the_rows_its_scalar_rejects():
    # check_unit_vector_relation is no engine row's checker: its function
    # on rows of angles and variances, some outside its domain and some
    # NaN, flags exactly the rows where it raises, and gives its margins.
    p = _lane_operands(2)[0]["rho"].p
    theta, da2, db2 = 4.0 * p[:, 0], p[:, 1] + 0.5, p[:, 2] + 0.5
    theta[3], da2[4], db2[5] = math.nan, math.nan, math.nan
    lhs, rhs, checks = relations._unit_vector_relation(theta, da2, db2)
    bad, raised = linalg.failures(checks), []
    for i, args in enumerate(zip(theta.tolist(), da2.tolist(), db2.tolist())):
        try:
            margin = relations.check_unit_vector_relation(*args).margin
        except ValueError:
            raised.append(i)
            continue
        assert (lhs[i] - rhs[i]).tobytes() == np.float64(margin).tobytes()
    assert {3, 4, 5} <= set(raised) < set(range(len(p))) and np.flatnonzero(bad).tolist() == raised


def _run_chunks(row, given, count=3):
    """Run ``engine.chunks`` of ``row`` over ``count`` qubit samples."""
    for _ in engine.chunks(row, basis_for(2), 0, count, **given):
        pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("name", sorted(_SHARED))
def test_scalar_and_twin_call_one_function(monkeypatch, name):
    # A spy on the function that states the relation: the scalar checker,
    # on one row's objects, and the engine, on a chunk of rows, must both
    # reach it.
    row, given = _engine_rows()[name]
    lanes, rows = _lane_operands(2, n=3)
    shared = getattr(relations, row.shared)
    calls = []

    def spy(*args):
        calls.append(args)
        return shared(*args)

    monkeypatch.setattr(relations, row.shared, spy)
    args = _lane_args(name, lanes)
    try:  # row 0 may fail a precondition after the shared call
        getattr(relations, name)(**_row_args(args, rows[0]))
    except (ValueError, ArithmeticError):
        pass
    alone, calls[:] = len(calls), []
    _run_chunks(row, given)
    assert alone and calls


def _spy(monkeypatch, modules, name):
    """Replace ``name`` in each of ``modules`` by one wrapper that records,
    a call each, the most dimensions of its arguments (of a state's or an
    observable's Bloch vectors)."""
    shared = getattr(modules[0], name)
    calls = []

    def spy(*args):
        calls.append(max(np.ndim(getattr(x, "p", getattr(x, "a", x))) for x in args))
        return shared(*args)

    for module in modules:
        assert getattr(module, name) is shared
        monkeypatch.setattr(module, name, spy)
    return calls


def test_variance_matrix_and_its_twin_call_one_function(monkeypatch):
    # variance_matrix, and the engine's robertson rows, on matrices.
    lanes, rows = _lane_operands(3, n=3)
    calls = _spy(monkeypatch, (variance, relations), "_variance_matrix")
    variance.variance_matrix(rows[0]["a"], rows[0]["rho"])
    engine.fuzz("robertson", 3, 3, 0, 0.0)
    assert calls == [2, 3, 3]


# Each scalar of ``variance`` whose function an engine row reaches: the
# function, the scalar's operands, and the checker of the row (the
# triangle's angles, the pair scan's Bloch variances).
_VARIANCE_SHARED = {
    "variance_bloch": ("_variance_bloch", ("a", "rho", "basis"), "scan_pair_point"),
    "angles": ("_angles", ("a", "b", "rho"), "check_triangle"),
    "vector_angle": ("_vector_angle", ("p", "a_vector"), "check_triangle"),
}


@pytest.mark.parametrize("name", sorted(_VARIANCE_SHARED))
def test_variance_scalars_and_twins_call_one_function(monkeypatch, name):
    # The scalar on row 0's objects, and the engine on a chunk of rows.
    lanes, rows = _lane_operands(2, n=3)
    shared, params, checker = _VARIANCE_SHARED[name]
    row, given = _engine_rows()[checker]
    calls = _spy(monkeypatch, [m for m in (variance, relations) if hasattr(m, shared)], shared)
    row_ops = {**lanes, **rows[0], "p": rows[0]["rho"].p, "a_vector": rows[0]["a"].a}
    getattr(variance, name)(*(row_ops[k] for k in params))
    alone, calls[:] = calls[:], []
    _run_chunks(row, given)
    assert alone and calls and {d + 1 for d in alone} == set(calls)


# The function a scan point composes for its checker's relation, where
# it is not the checker's own: the triple scan takes the equality's lhs,
# rhs and checks, and the variances with them, from `_axis_triple`.
_COMPOSED = {"check_three_observable_equality": "_axis_triple"}


def _nan_where_x_above(shared, x):
    """``shared``, a relation's function, with a NaN lhs wherever its
    state's first Bloch coordinate is above ``x``, on one sample or on
    rows."""

    def patched(*args):
        lhs, *rest = shared(*args)
        return np.where(args[-1].p[..., 0] > x, math.nan, lhs), *rest

    return patched


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize(
    "name,floor,value,checker",
    [("scan_pair_point", "_SCAN_MARGIN_FLOOR", 0.1, "check_theorem1"),
     ("scan_triple_point", "_SURFACE_TOL", 5e-16, "check_three_observable_equality")],
)
def test_scan_twins_flag_exactly_the_rows_that_fail_their_floors(
    monkeypatch, name, floor, value, checker
):
    # The scan points' floors, moved so that some rows pass them and
    # others fail them, with NaN margins among the failures: the scan
    # point's function flags exactly the rows where the scalar raises.
    lanes, rows = _lane_operands(2)
    before = set(_rows_raise(name, lanes, rows))
    monkeypatch.setattr(relations, floor, value)
    shared = _COMPOSED.get(checker, _SHARED[checker])
    monkeypatch.setattr(relations, shared, _nan_where_x_above(getattr(relations, shared), 0.7))
    raised = set(_rows_raise(name, lanes, rows))
    nan = {i for i, row in enumerate(rows) if row["rho"].p[0] > 0.7}
    # Rows newly failing the floor, NaN ones among them, and rows passing it.
    assert raised - before - nan and nan - before and before | nan <= raised < set(range(len(rows)))


def test_pair_scan_broadcasts_its_fixed_observables():
    # The pair scan's function takes A and B as they are, one Bloch
    # vector against the rows of states: bit for bit what it gives on
    # rows that repeat them.
    lanes, _ = _lane_operands(2, n=40)
    rho, index = lanes["rho"], lanes["index"]
    fixed, repeated = (lanes["A"], lanes["B"]), []
    for obs in fixed:
        fields = (obs.matrix.array, obs.a, obs.a_prime, np.float64(obs.norm2))
        rows = (np.repeat(np.asarray(f)[None], 40, axis=0) for f in fields)
        repeated.append(bloch.ObservableBatch(*rows, np.zeros(40, dtype=bool)))
    assert np.array_equal(_bits(row_dot(fixed[0].a, rho.p)), _bits(row_dot(repeated[0].a, rho.p)))
    got, expected = (
        engine._lane_values(relations._scan_pair_point(*pair, rho, index))
        for pair in (fixed, repeated)
    )
    assert [_bits(x).tobytes() for x in got] == [_bits(x).tobytes() for x in expected]


def test_robertson_checkers_reject_operands_of_two_dims():
    rows2, rows3 = _lane_operands(2, n=3)[1], _lane_operands(3, n=3)[1]
    with pytest.raises(DimensionMismatch):
        relations.robertson_bound(rows2[0]["a"], rows3[0]["b"], rows3[0]["rho"])


def test_engine_covers_the_catalogue():
    # Every row names a public checker of `relations`, the private
    # function that states its relation, and the arguments both take.
    for entry in engine.RELATIONS.values():
        name, *params = entry.check
        assert name in relations.__all__ and callable(getattr(relations, name))
        assert entry.shared not in relations.__all__ and callable(getattr(relations, entry.shared))
        assert set(params) <= {"a", "b", "state", "theta_ab", "basis"}
    assert QUDIT_RELATIONS == ["appendix-c", "robertson"]


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("relation", RELATIONS)
def test_engine_looks_its_calls_up_at_call_time(monkeypatch, relation):
    # A wrapper put on a module attribute after import, as the bench's
    # tracer puts one, sees the engine's calls: the row's function and
    # the one-pass draws through `fuzz`, its scalar checker through
    # `_sample`.
    row = engine.RELATIONS[relation]
    dim = 2 if row.dims else 3
    lanes = _count_calls(monkeypatch, relations, row.shared)
    check = _count_calls(monkeypatch, relations, row.check[0])
    draws = _count_calls(monkeypatch, sampling, "draw_batches")
    engine.fuzz(relation, dim, 5, 0, math.pi / 4.0)
    assert lanes and draws and not check
    engine._sample(relation, basis_for(dim), 0, 4, math.pi / 4.0)
    assert check


# Each scan, and the floor that makes every one of its samples fail.
_SCANS = {
    "pair": (lambda cfg: regions.scan_pair(*_scan_pair_observables(), cfg, 0.01),
             "_SCAN_MARGIN_FLOOR", math.inf),
    "triple": (lambda cfg: regions.scan_triple(0.9, cfg, 0.01), "_SURFACE_TOL", -1.0),
}


def _scan_pair_observables():
    basis = basis_for(2)
    return (bloch.observable_from_bloch([0.48, -0.6, 0.64], basis),
            bloch.observable_from_bloch([0.1, 0.7, -0.5], basis))


@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_scans_look_their_checkers_up_at_call_time(monkeypatch, scan):
    # The scans' counterpart of the test above: a wrapper put on a scan
    # point's function after import sees a call of it once a chunk (20
    # samples, chunks of 8), and one on the scan point itself sees it
    # only on a replay, here forced by a floor that every sample fails;
    # the replay reaches the function once more.
    run, floor, failing = _SCANS[scan]
    lanes = _count_calls(monkeypatch, relations, f"_scan_{scan}_point")
    check = _count_calls(monkeypatch, relations, f"scan_{scan}_point")
    monkeypatch.setattr(sampling, "ENGINE_CHUNK", 8)
    cfg = SampleConfig(seed=0, dim=2, count=20, kind="haar_pure")
    run(cfg)
    assert len(lanes) == 3 and not check
    monkeypatch.setattr(relations, floor, failing)
    with pytest.raises(NumericsError, match="^sample 0 (violates|misses)"):
        run(cfg)
    assert len(lanes) == 5 and len(check) == 1


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, samples=st.integers(1, 40), chunk=st.integers(1, 16))
@example(seed=0, samples=33, chunk=8)
@example(seed=2**64 - 1, samples=17, chunk=16)
def test_engine_matches_scalar_loop(relation, seed, samples, chunk):
    with mock.patch.object(sampling, "ENGINE_CHUNK", chunk):
        lanes = _margins(relation, samples, seed)
        summary = engine.fuzz(relation, 2, samples, seed, math.pi / 4.0)
    with _scalar_only():
        scalar = _margins(relation, samples, seed)
        expected = engine.fuzz(relation, 2, samples, seed, math.pi / 4.0)
    assert lanes.dtype == scalar.dtype == np.float64
    assert np.array_equal(lanes, scalar)
    assert _summary_reprs(summary) == _summary_reprs(expected)


# Margins that tell the reductions apart: NaN, both zeros, both
# infinities, values at the tolerances, and ties among them.
_EDGE_MARGINS = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, -1e-10, -2e-10, 1e-12, -1.0, 1.0]),
    st.floats(),
)


@settings(max_examples=150, deadline=None)
@given(
    relation=st.sampled_from(["theorem1", "appendix-c"]),
    chunks=st.lists(st.lists(_EDGE_MARGINS, max_size=300), max_size=4),
)
@example(relation="theorem1", chunks=[[0.0, math.nan, -0.0], [-0.0, 0.0]])
@example(relation="theorem1", chunks=[[math.nan], [], [-0.0] * 40 + [0.0]])
@example(relation="appendix-c", chunks=[[math.inf, -math.inf, math.nan, -math.inf]])
def test_fuzz_reduces_margins_as_the_python_loop(relation, chunks):
    # `fuzz` reduces each chunk with numpy; the loop it replaced took
    # Python's min and max over the margins one by one, in stream order.
    tol = engine.RELATIONS[relation].tol
    worst, worst_abs, holds, saturated = math.inf, 0.0, True, 0
    for margin in (m for chunk in chunks for m in chunk):
        worst = min(worst, margin)
        worst_abs = max(worst_abs, abs(margin))
        holds = holds and margin >= -tol
        saturated += int(abs(margin) <= relations.SATURATION_TOL)
    expected = {
        "relation": relation,
        "checks": sum(map(len, chunks)),
        "holds": holds,
        "worst_margin": worst,
        "max_abs_margin": worst_abs,
        "saturated": saturated,
    }
    arrays = [np.array(chunk, dtype=np.float64) for chunk in chunks]
    with mock.patch.object(engine, "_verdicts", lambda *args: iter(arrays)):
        summary = engine.fuzz(relation, 2, 1, 0, 0.0)
    assert _summary_reprs(summary) == _summary_reprs(expected)


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, theta_ab=st.floats(0.0, math.pi))
def test_three_obs_engine_matches_at_any_angle(seed, theta_ab):
    lanes = _margins("three-obs-equality", 30, seed, theta_ab)
    with _scalar_only():
        assert np.array_equal(lanes, _margins("three-obs-equality", 30, seed, theta_ab))


# Tries each pending lane draws in every appendix-c round: one, two,
# five, or the default rule.
_TRIES = [1, 2, 5, "default"]


def _tries_per_round(tries):
    """Patch that gives each pending lane ``tries`` tries every round."""
    if tries == "default":
        return mock.patch.object(engine, "_round_tries", engine._round_tries)
    return mock.patch.object(engine, "_round_tries", lambda pending: tries)


# How the lanes draw their uniforms: as `_segment_steps` picks, every
# draw of two or more segments in segments, or every draw stepped.
_DRAWS = ["default", "segmented", "stepped"]


def _every_draw_segmented(lanes, k):
    m = round(math.sqrt(3 * k))
    return m if m < k else 0


def _draws(regime):
    """Patch that sends the lanes draws through ``regime``."""
    rule = {
        "default": sampling._segment_steps,
        "segmented": _every_draw_segmented,
        "stepped": lambda lanes, k: 0,
    }[regime]
    return mock.patch.object(sampling, "_segment_steps", rule)


@pytest.mark.parametrize("draws", _DRAWS)
@pytest.mark.parametrize("relation", QUDIT_RELATIONS)
@pytest.mark.parametrize("dim", [2, 3, 6, 10])
@settings(max_examples=5, deadline=None)
@given(
    seed=SEEDS, samples=st.integers(1, 30), chunk=st.integers(1, 16), tries=st.sampled_from(_TRIES)
)
@example(seed=0, samples=30, chunk=16, tries=1)
@example(seed=2**64 - 1, samples=29, chunk=16, tries="default")
@example(seed=1729, samples=17, chunk=16, tries=5)
@example(seed=0, samples=5, chunk=16, tries="default")  # round 1: 24 // 5 = 4 tries a lane
def test_qudit_engine_matches_scalar_loop(relation, dim, draws, seed, samples, chunk, tries):
    with mock.patch.object(sampling, "ENGINE_CHUNK", chunk), _tries_per_round(tries), _draws(draws):
        lanes = _margins(relation, samples, seed, dim=dim)
        summary = engine.fuzz(relation, dim, samples, seed, math.pi / 4.0)
    with _scalar_only():
        scalar = _margins(relation, samples, seed, dim=dim)
        expected = engine.fuzz(relation, dim, samples, seed, math.pi / 4.0)
    assert lanes.dtype == scalar.dtype == np.float64
    assert np.array_equal(lanes, scalar)
    assert _summary_reprs(summary) == _summary_reprs(expected)


@pytest.mark.parametrize(
    "relation,dim", [("theorem1", 2), ("robertson", 6), ("appendix-c", 6), ("scan_pair", 2)]
)
def test_a_chunk_is_freed_before_the_next_draws(monkeypatch, relation, dim):
    # Nothing holds a chunk's draws, the observables built on them, or
    # their bases, once `fuzz` or a pair scan has read its values: when
    # the next chunk draws they are dead.  Appendix-c's draws are its
    # rounds loop's return, not a `draw_batches` call's.
    planned = relation == "scan_pair" or engine.RELATIONS[relation].plan is not None
    module, name = (sampling, "draw_batches") if planned else (engine, "_appendix_c_lanes")
    draw, build = getattr(module, name), bloch.observable_from_bloch_batch
    held, alive = [], []

    def hold(rows):
        arrays = list(rows)
        held.extend(map(weakref.ref, arrays + [x.base for x in arrays if x.base is not None]))

    def spy(*args):
        alive.append(sum(ref() is not None for ref in held))
        held.clear()
        drawn = draw(*args)
        for rows in drawn:
            hold(rows)
        return drawn

    def build_spy(vec, basis):
        rows = build(vec, basis)
        hold(rows)
        return rows

    monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(bloch, "observable_from_bloch_batch", build_spy)
    with mock.patch.object(sampling, "ENGINE_CHUNK", 16):
        if relation == "scan_pair":
            cfg = SampleConfig(seed=0, dim=dim, count=60, kind="hs_mixed")
            regions.scan_pair(*_scan_pair_observables(), cfg, 0.01)
        else:
            engine.fuzz(relation, dim, 60, 0, math.pi / 4.0)
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("relation", ["theorem1", "state-dependent", "unit-vector"])
def test_default_chunk_boundary(relation):
    samples = sampling.ENGINE_CHUNK + 3
    with _scalar_only():
        scalar = _margins(relation, samples, 20150223)
    assert np.array_equal(_margins(relation, samples, 20150223), scalar)


# ---------------------------------------------------------------------------
# iter_states: the engine's checked rows as states


@pytest.mark.parametrize("kind", sampling._KINDS)
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_iter_states_match_draw_state(dim, kind):
    # Every kind SampleConfig takes, past the first chunk (2,048 streams
    # at N = 2 and 3, 1,365 at N = 6), and read-only.
    basis = basis_for(dim)
    count = min(sampling.ENGINE_CHUNK, sampling._CHUNK_ENTRIES // dim**2) + 5
    states = list(iter_states(SampleConfig(seed=11, dim=dim, count=count, kind=kind)))
    assert len(states) == count
    for i, state in enumerate(states):
        expected = sampling.draw_state(kind, Xoshiro256pp(11, stream=i), basis, i)
        assert state.dim == expected.dim
        assert np.array_equal(_bits(state.rho.array), _bits(expected.rho.array))
        assert np.array_equal(_bits(state.p), _bits(expected.p))
        assert state.purity.hex() == expected.purity.hex()
        assert not state.rho.array.flags.writeable and not state.p.flags.writeable


def test_iter_states_raise_what_the_first_failing_draw_raises():
    # A positive eigenvalue floor fails some of these qutrit draws.  The
    # first failing state is neither the first of its chunk nor in the
    # first chunk, and a later one of its chunk fails too: the chunks
    # before it are yielded, and none of its own chunk's states.
    cfg = SampleConfig(seed=0, dim=3, count=64, kind="hs_mixed")
    basis = basis_for(3)
    failing, errors, yielded = [], [], []
    with mock.patch.object(bloch, "PSD_EIGENVALUE_FLOOR", 0.005):
        for i in range(cfg.count):
            try:
                sampling.draw_state(cfg.kind, Xoshiro256pp(cfg.seed, stream=i), basis, i)
            except ValueError as exc:
                failing.append(i)
                errors.append(exc)
        with mock.patch.object(sampling, "ENGINE_CHUNK", 8), pytest.raises(Exception) as lanes:
            for state in iter_states(cfg):
                yielded.append(state)
    assert type(lanes.value) is type(errors[0])
    assert str(lanes.value) == str(errors[0])
    start = failing[0] - failing[0] % 8
    assert 8 <= start < failing[0] < failing[1] < start + 8
    assert len(yielded) == start


# ---------------------------------------------------------------------------
# lane RNG


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, streams=st.lists(st.integers(0, 2**40), min_size=1, max_size=12))
@example(seed=0, streams=[0, 1, 2, 3])
def test_lanes_reproduce_each_stream(seed, streams):
    lanes = XoshiroLanes(seed, streams)
    rngs = [Xoshiro256pp(seed, stream=k) for k in streams]
    assert lanes.next_u64().tolist() == [rng.next_u64() for rng in rngs]
    assert np.array_equal(lanes.uniforms(3), [[rng.uniform() for _ in range(3)] for rng in rngs])
    assert np.array_equal(lanes.gaussians(5), [rng.gaussians(5) for rng in rngs])
    got = sampling._complex_pairs(lanes.gaussians(8))
    assert np.array_equal(got, [rng.complex_gaussians(4) for rng in rngs])


@settings(max_examples=20, deadline=None)
@given(
    seed=SEEDS,
    order=st.permutations(range(9)),
    size=st.integers(0, 9),
    mask=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_masked_lanes_advance_alone(seed, order, size, mask):
    lanes = XoshiroLanes(seed, [4, 0, 7, 2**40, 3, 11, 5, 1, 9])
    streams = lanes.streams.tolist()
    lanes.gaussians(3)

    def scalar(k):  # the stream of lane k, advanced as the lanes are
        rng = Xoshiro256pp(seed, stream=streams[k])
        rng.gaussians(3)
        return rng

    index = np.array(order[:size], dtype=np.intp)
    for taken, picked in [(lanes.take(index), index), (lanes.take(np.array(mask)), np.flatnonzero(mask))]:
        picked = picked.tolist()
        assert taken.streams.tolist() == [streams[k] for k in picked]
        rngs = [scalar(k) for k in picked]
        got = sampling._complex_pairs(taken.gaussians(4))
        assert np.array_equal(got, np.reshape([rng.complex_gaussians(2) for rng in rngs], (-1, 2)))
        # Each taken lane goes on with its own stream.
        expected = np.reshape([rng.gaussians(4) for rng in rngs], (-1, 4))
        assert np.array_equal(taken.gaussians(4), expected)
    # Drawing from the copies did not advance the parent.
    assert np.array_equal(lanes.gaussians(3), [scalar(k).gaussians(3) for k in range(9)])


def test_lane_chunks_cover_the_streams_in_order(monkeypatch):
    monkeypatch.setattr(sampling, "ENGINE_CHUNK", 4)
    chunks = list(sampling.lane_chunks(11, 10, 2))
    assert [rng.streams.tolist() for rng in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    for rng in chunks:
        expected = [Xoshiro256pp(11, stream=k).next_u64() for k in rng.streams.tolist()]
        assert rng.next_u64().tolist() == expected
    assert list(sampling.lane_chunks(11, 0, 2)) == []


def test_lane_chunks_shrink_with_n_squared():
    # ENGINE_CHUNK streams up to N = 4; above, as many as keep a chunk's
    # (rows, N, N) stacks within _CHUNK_ENTRIES entries.
    def rows(dim):
        return next(sampling.lane_chunks(0, 10**6, dim)).streams.size

    assert [rows(dim) for dim in (2, 4, 5, 6, 10, 16)] == [2048, 2048, 1966, 1365, 491, 192]
    assert [rng.streams[0] for rng in sampling.lane_chunks(0, 400, 16)] == [0, 192, 384]


# Observable draws at _MIN_NORM thresholds that make a low norm common:
# at 1.6 most su(2) draws fall below it, at 2.5 about a third of the su(3)
# ones.  The su(3) draws are on a subset of lanes, as appendix-c's are.
_LOW_NORMS = [(2, 1, 1e-12), (2, 1, 1.0), (2, 1, 1.6), (3, 3, 1e-12), (3, 3, 2.5)]


@pytest.mark.parametrize("dim,step,min_norm", _LOW_NORMS)
def test_low_norm_observable_lanes_match_scalar(dim, step, min_norm):
    # Lanes are bad exactly where `draw_observable` raises, every other
    # row is its draw bit for bit, and every lane goes on where its stream
    # stands, bad ones included.
    basis = basis_for(dim)
    lanes = XoshiroLanes(5, range(64)).take(np.arange(1, 64, step))
    rngs = [Xoshiro256pp(5, stream=k) for k in lanes.streams.tolist()]
    raised = []
    with mock.patch.object(sampling, "_MIN_NORM", min_norm):
        (directions,) = sampling.draw_batches((_DIR,), lanes.take(np.arange(lanes.streams.size)), basis)
        (batch,) = built((_DIR,), sampling.draw_batches((_DIR,), lanes, basis), basis)
        for k, rng in enumerate(rngs):
            try:
                obs = draw_observable(rng, basis)
            except NumericsError:
                raised.append(k)
                continue
            assert np.array_equal(directions.a[k], obs.a)
            assert np.array_equal(batch.a[k], obs.a) and np.array_equal(batch.a_prime[k], obs.a_prime)
            assert np.array_equal(batch.matrix[k], obs.matrix.array) and batch.norm2[k] == obs.norm2
    assert np.flatnonzero(batch.bad).tolist() == np.flatnonzero(directions.bad).tolist() == raised
    assert bool(raised) == (min_norm > 1e-12)
    assert np.array_equal(lanes.gaussians(2), [rng.gaussians(2) for rng in rngs])


# Plans of `draw_batches`: a state and a pair, appendix-c's try, and
# each draw alone.
_STATE_KINDS = ["haar_pure", "hs_mixed", "alternating", "maximally_mixed"]
_DIR = sampling.DIRECTION
_PLANS = (
    [(kind, _DIR, _DIR) for kind in _STATE_KINDS]
    + [(_DIR, _DIR, "hs_mixed")]
    + [(kind,) for kind in _STATE_KINDS + [_DIR]]
)


def _assert_same_fields(got, expected):
    # Batch fields bit for bit (`_bits`), the bool `bad` as it is.
    assert type(got) is type(expected)
    for x, y in zip(got, expected):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert np.array_equal(x, y) if x.dtype == bool else np.array_equal(_bits(x), _bits(y))


def _one_by_one(plan, rng, basis):
    return [sampling.draw_batches((kind,), rng, basis)[0] for kind in plan]


def _assert_fused_matches_one_by_one(plan, rng, basis):
    # One call for the plan against its draws one after another, from the
    # same lanes: every field bit for bit, and every lane's end state;
    # and so the observables built on the plan's directions in one call
    # against those built on each direction alone.
    sequential = rng.take(np.arange(rng.streams.size))
    fused = sampling.draw_batches(plan, rng, basis)
    expected = _one_by_one(plan, sequential, basis)
    assert len(fused) == len(plan)
    for got, want in zip(fused, expected):
        _assert_same_fields(got, want)
    built_alone = [built((kind,), [draw], basis)[0] for kind, draw in zip(plan, expected)]
    for got, want in zip(built(plan, fused, basis), built_alone):
        _assert_same_fields(got, want)
    assert np.array_equal(rng._s, sequential._s)


@settings(max_examples=40, deadline=None)
@given(
    plan=st.sampled_from(_PLANS),
    dim=st.sampled_from([2, 3, 6, 10]),
    lanes=st.integers(1, 300),
    seed=SEEDS,
    min_norm=st.sampled_from([None, 0.9, 1.0]),
)
@example(plan=(_DIR, _DIR, "hs_mixed"), dim=10, lanes=300, seed=0, min_norm=1.0)
@example(plan=("alternating", _DIR, _DIR), dim=2, lanes=1, seed=2**64 - 1, min_norm=1.0)
def test_fused_draw_matches_draws_one_after_another(plan, dim, lanes, seed, min_norm):
    # min_norm scales sqrt(N^2 - 1), about the median norm of an
    # observable's Gaussians: at 1.0 about half the lanes' A rows are
    # bad, and half their B rows.  Bad or not, every lane ends the plan's
    # width of u64s on, the jump appendix-c's side-by-side tries rest on.
    basis = basis_for(dim)
    threshold = sampling._MIN_NORM if min_norm is None else min_norm * math.sqrt(basis.n_generators)
    rng = XoshiroLanes(seed, np.arange(lanes) * 3 + 1)
    start = rng._s.copy()
    with mock.patch.object(sampling, "_MIN_NORM", threshold):
        _assert_fused_matches_one_by_one(plan, rng, basis)
    table = sampling._jump_table(sum(sampling.plan_widths(plan, dim)))
    assert np.array_equal(rng._s, sampling._jump(start, table))


def _low_norms(rng, basis):
    # The lanes of rng whose next observable draw falls below _MIN_NORM.
    g = rng.take(np.arange(rng.streams.size)).gaussians(basis.n_generators)
    return ~(np.sqrt(row_dot(g, g)) >= sampling._MIN_NORM)


@pytest.mark.parametrize("plan", [("haar_pure", _DIR, _DIR), (_DIR, _DIR, "hs_mixed")])
def test_fused_low_norms_of_a_of_b_and_of_both_match(plan):
    # Lanes whose A, B, or both fall below _MIN_NORM, each present, in
    # one plan.
    basis = basis_for(3)
    with mock.patch.object(sampling, "_MIN_NORM", math.sqrt(basis.n_generators)):
        rng = XoshiroLanes(11, range(300))
        walk = rng.take(np.arange(300))
        low = []
        for kind in plan:
            if kind == _DIR:
                low.append(_low_norms(walk, basis))
            _one_by_one((kind,), walk, basis)
        a, b = low
        assert (a & ~b).any() and (~a & b).any() and (a & b).any() and (~a & ~b).any()
        _assert_fused_matches_one_by_one(plan, rng, basis)


class _Counting(Xoshiro256pp):
    """A scalar generator that counts its u64 draws."""

    __slots__ = ("draws",)

    def __init__(self, seed, stream):
        super().__init__(seed, stream)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


@pytest.mark.parametrize("dim", range(2, 17))
def test_jump_table_moves_a_try_ahead(dim):
    # An appendix-c try draws 4 floor(N^2 / 2) + 2 N^2 u64s, and the jump
    # table moves a state as that many generator steps do.
    basis = basis_for(dim)
    steps = engine._try_steps(basis)
    assert steps == 4 * (dim * dim // 2) + 2 * dim * dim
    rng = _Counting(5, 7)
    draw_observable(rng, basis)
    draw_observable(rng, basis)
    sampling.draw_mixed(rng, basis)
    assert rng.draws == steps
    table = sampling._jump_table(steps)
    assert table.shape == (64, 16, 4) and table.dtype == np.uint64
    for seed in (0, 2**64 - 1):
        lanes = XoshiroLanes(seed, [0, 1, 5, 2**40])
        state = lanes._s.copy()
        for _ in range(steps):
            sampling._step(state)
        assert np.array_equal(sampling._jump(lanes._s, table), state)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_ahead_copies_stand_tries_apart(seed):
    streams = [3, 0, 9]
    lanes = XoshiroLanes(seed, streams)
    lanes.gaussians(3)  # 4 u64s: not at the start of a stream
    ahead = lanes.ahead(4, 34)
    assert ahead.streams.tolist() == streams * 4
    rows = ahead.next_u64().reshape(4, 3)
    for t in range(4):
        for k, stream in enumerate(streams):
            rng = Xoshiro256pp(seed, stream=stream)
            for _ in range(4 + 34 * t):
                rng.next_u64()
            assert rows[t, k] == rng.next_u64()
    # Drawing from the copies did not advance the parent.
    expected = [Xoshiro256pp(seed, stream=k).gaussians(8)[4:7] for k in streams]
    assert np.array_equal(lanes.gaussians(3), expected)


def _stepped_uniforms(rng, k):
    with _draws("stepped"):
        return rng.uniforms(k)


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    lanes=st.integers(1, 900),
    k=st.integers(1, 512),
    m=st.integers(1, 64),
    drawn=st.integers(0, 3),
)
@example(seed=0, lanes=1, k=5, m=9, drawn=0)  # k < m
@example(seed=1, lanes=600, k=24, m=24, drawn=1)  # k = m
@example(seed=2**64 - 1, lanes=48, k=200, m=24, drawn=2)  # k not a multiple of m
@example(seed=3, lanes=16, k=400, m=20, drawn=0)  # k a multiple of m
def test_segmented_draw_matches_stepped(seed, lanes, k, m, drawn):
    # From 1 lane to past where ``_segment_steps`` stops segmenting, at
    # any segment length: the same bits, and every lane left where its
    # k-th u64 leaves it.
    rng = XoshiroLanes(seed, np.arange(lanes) * 7 + 2)
    rng.gaussians(drawn)
    segmented = rng.take(np.arange(lanes))
    expected = _stepped_uniforms(rng, k)
    got = segmented._segmented(k, m) * 2.0**-53
    assert got.shape == (lanes, k)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(segmented._s, rng._s)
    assert np.array_equal(segmented.next_u64(), rng.next_u64())


def test_segment_rule():
    # Small draws and wide chunks step; a qudit draw on a few dozen lanes
    # goes in segments of about sqrt(3k), their count set by k alone.
    assert [sampling._segment_steps(1, k) for k in (1, 2, 3, 4)] == [0, 0, 0, 0]
    assert sampling._segment_steps(250, 8) == 0  # an N = 2 state or observable alone
    assert sampling._segment_steps(250, 16) == 0  # an N = 2 sample on 250 lanes
    assert sampling._segment_steps(sampling.ENGINE_CHUNK, 64) == 0  # an N = 4 sample
    assert sampling._segment_steps(192, 1024) == 55  # an N = 16 sample, a full chunk
    assert sampling._segment_steps(16, 200) == sampling._segment_steps(48, 200) == 24
    assert sampling._segment_steps(45, 36) == 10


def test_qudit_jobs_build_few_jump_tables():
    # One pass over the bench's N-level jobs builds a table per try
    # length and per segment length: at most three per dimension, 32 KB
    # each, where the try tables alone are one per dimension.
    samples = {"appendix-c": {3: 110, 6: 45, 10: 16}, "robertson": {3: 150, 6: 95, 10: 45}}
    sampling._jump_table.cache_clear()
    for relation, by_dim in samples.items():
        for dim, count in by_dim.items():
            engine.fuzz(relation, dim, count, 0, math.pi / 4.0)
    built = sampling._jump_table.cache_info().currsize
    assert 3 < built <= 3 * 3
    assert sampling._jump_table(34).nbytes == 32 * 1024


def test_lanes_reject_bad_seeds_and_streams():
    with pytest.raises(ValueError):
        XoshiroLanes(-1, [0])
    with pytest.raises(ValueError):
        XoshiroLanes(2**64, [0])
    with pytest.raises(ValueError):
        XoshiroLanes(0, [3, -1])


# ---------------------------------------------------------------------------
# failures: the first failing stream raises the scalar exception

# Tightened tolerances make some streams fail a check: the engine must
# raise what the per-stream loop raises, for the same stream.  A raised
# _MIN_NORM makes observable draws fail (theorem1 draws its state first,
# mixed-limit none).  The entries of relations' own tolerances fail the
# checkers' checks: the purity window of the three pure-state relations
# (ValueError, and NotApplicable for state-dependent), theorem1's slack
# on (a·p)² <= |a|²|p|², and the real part of state-dependent's
# commutator.  The last entry fails every stream (in the recipe, before
# any lane is drawn).
_FAILURES = [
    (bloch, "PSD_EIGENVALUE_FLOOR", 0.0, "pure-limit"),
    (bloch, "_CONSISTENCY_ATOL", 1e-15, "theorem1"),
    (bloch, "_TRACE_ATOL", 0.0, "appendix-b"),
    (variance, "_NEGATIVE_VARIANCE_FLOOR", 0.05, "state-dependent"),
    (variance, "_ZERO_NORM", 0.3, "triangle"),
    (variance, "_COS_EXCESS", -0.01, "triangle"),
    (relations, "_RADICAND_FLOOR", 0.01, "theorem1"),
    (relations, "_PURITY_ATOL", 1e-15, "pure-limit"),
    (relations, "_PURITY_ATOL", 1e-15, "three-obs-equality"),
    (relations, "_PURITY_ATOL", 1e-15, "state-dependent"),
    (relations, "_NORM_SLACK", -0.01, "theorem1"),
    (relations, "_REAL_COMMUTATOR_ATOL", 1e-16, "state-dependent"),
    (sampling, "_MIN_NORM", 0.6, "theorem1"),
    (sampling, "_MIN_NORM", 0.6, "mixed-limit"),
    (linalg, "HERMITICITY_ATOL", -1.0, "mixed-limit"),
]


def _failing_streams(relation, samples, seed, dim=2):
    basis = basis_for(dim)
    failing = []
    for i in range(samples):
        try:
            engine._sample(relation, basis, seed, i, math.pi / 4.0)
        except (ValueError, ArithmeticError, RuntimeError):
            failing.append(i)
    return failing


@pytest.mark.parametrize("module,name,value,relation", _FAILURES, ids=failure_ids(_FAILURES))
def test_first_failing_stream_raises_scalar_error(module, name, value, relation):
    with mock.patch.object(module, name, value):
        failing = _failing_streams(relation, 200, 3)
        with _scalar_only(), pytest.raises(Exception) as scalar:
            engine.fuzz(relation, 2, 200, 3, math.pi / 4.0)
        with mock.patch.object(sampling, "ENGINE_CHUNK", 16), pytest.raises(Exception) as lanes:
            engine.fuzz(relation, 2, 200, 3, math.pi / 4.0)
    assert type(lanes.value) is type(scalar.value)
    assert str(lanes.value) == str(scalar.value)
    if module is not linalg:
        # A stream past the first fails first, and others fail after it.
        assert 0 < failing[0] and len(failing) > 1


class _NanProjection:
    """A projection that gives NaN on the rows whose unprojected p has
    |p[0]| > 0.2: their reconstruction fails, before any mean is read."""

    project_rows = staticmethod(engine._project_orthogonal_rows)

    def __call__(self, p, a, b):
        return np.where((np.abs(p[:, 0]) > 0.2)[:, None], np.nan, self.project_rows(p, a, b))

    def __str__(self):
        return "nan-where-p0-above-0.2"


# The same for appendix-c's rejection draws at N > 2.  A positive
# eigenvalue floor and a tight trace tolerance make mixed draws raise
# UnphysicalState outside the rejection loop's catch (the trace one also
# makes observables raise), a tight consistency tolerance makes
# observables raise ValueError, a raised _MIN_NORM makes observable
# draws raise NumericsError, a NaN projection makes the reconstruction
# raise ValueError (a NaN mean, which the zero-mean test rejects, is
# never read), one or two tries raise RuntimeError for each stream whose
# tries are all rejected (with two, a lane that draws one try a round
# has one try left in its second), and a variance floor and a tight
# agreement of the shifted variances' two routes make the check raise
# after the draw.
_QUDIT_DRAW_FAILURES = [
    (bloch, "PSD_EIGENVALUE_FLOOR", 0.01, 3),
    (bloch, "_TRACE_ATOL", 1e-16, 3),
    (bloch, "_CONSISTENCY_ATOL", 2e-16, 6),
    (sampling, "_MIN_NORM", 1.5, 3),
    (engine, "_project_orthogonal_rows", _NanProjection(), 3),
    (engine, "_APPENDIX_C_TRIES", 1, 3),
    (engine, "_APPENDIX_C_TRIES", 2, 6),
]
_QUDIT_FAILURES = _QUDIT_DRAW_FAILURES + [
    (variance, "_NEGATIVE_VARIANCE_FLOOR", 0.25, 6),
    (relations, "_ROUTES_ATOL", 3e-16, 3),
]


@pytest.mark.parametrize("tries", _TRIES)
@pytest.mark.parametrize("module,name,value,dim", _QUDIT_FAILURES, ids=failure_ids(_QUDIT_FAILURES))
def test_first_failing_appendix_c_stream_raises_scalar_error(module, name, value, dim, tries):
    with mock.patch.object(module, name, value):
        failing = _failing_streams("appendix-c", 60, 3, dim)
        with _scalar_only(), pytest.raises(Exception) as scalar:
            engine.fuzz("appendix-c", dim, 60, 3, 0.0)
        with (
            mock.patch.object(sampling, "ENGINE_CHUNK", 16),
            _tries_per_round(tries),
            pytest.raises(Exception) as lanes,
        ):
            engine.fuzz("appendix-c", dim, 60, 3, 0.0)
    assert type(lanes.value) is type(scalar.value)
    assert str(lanes.value) == str(scalar.value)
    assert 0 < failing[0] and len(failing) > 1


def _appendix_c_scored(seed, samples, dim):
    """``(margins, bad)`` of appendix-c on streams 0 .. samples - 1: the
    rows ``engine._appendix_c_lanes`` draws, scored and checked as
    ``engine.chunks`` scores and checks a chunk's draws."""
    basis = basis_for(dim)
    row = engine.RELATIONS["appendix-c"]
    with np.errstate(divide="ignore", invalid="ignore"):
        drawn = engine._appendix_c_lanes(XoshiroLanes(seed, range(samples)), basis)
        drawn = built(engine._TRY, drawn, basis)
        margins, failed = engine._lane_values(
            engine._call(row.shared, row, engine._TRY, drawn, basis=basis)
        )
    return margins, failed | np.logical_or.reduce([d.bad for d in drawn])


@pytest.mark.parametrize("tries", _TRIES)
@pytest.mark.parametrize("module,name,value,dim", _QUDIT_FAILURES, ids=failure_ids(_QUDIT_FAILURES))
def test_appendix_c_lanes_flag_the_streams_scalar_rejects(module, name, value, dim, tries):
    # Every failing stream, not only the first: a RuntimeError message
    # does not name its stream.  The variance floor fails the check, not
    # the draw, in round 1 and in later rounds alike.
    with mock.patch.object(module, name, value), _tries_per_round(tries):
        margins, bad = _appendix_c_scored(3, 20, dim)
        failing = _failing_streams("appendix-c", 20, 3, dim)
    assert failing and np.flatnonzero(bad).tolist() == failing
    assert margins.shape == bad.shape == (20,)


def test_nonzero_mean_tries_are_drawn_again(monkeypatch):
    # Leave p unprojected when p[0] <= 0, on both paths (they share the
    # projection): about half the tries then carry nonzero means, which
    # must be drawn again, not accepted.
    project_rows = engine._project_orthogonal_rows
    monkeypatch.setattr(
        engine, "_project_orthogonal_rows",
        lambda p, a, b: np.where((p[:, 0] > 0)[:, None], project_rows(p, a, b), p),
    )
    lanes = _margins("appendix-c", 40, 5, dim=3)
    with _scalar_only():
        assert np.array_equal(lanes, _margins("appendix-c", 40, 5, dim=3))


def _tries_before_failing(relation, samples, seed, dim):
    """The failing streams of the per-stream loop, each with the tries it
    rejected before the one that raised."""
    basis = basis_for(dim)
    project_rows = engine._project_orthogonal_rows
    failing = {}
    for i in range(samples):
        projected = []
        with mock.patch.object(
            engine, "_project_orthogonal_rows", lambda *args: projected.append(1) or project_rows(*args)
        ):
            try:
                engine._sample(relation, basis, seed, i, 0.0)
            except NumericsError:
                failing[i] = len(projected)
    return failing


@pytest.mark.parametrize("draws", _DRAWS)
@pytest.mark.parametrize("tries", _TRIES)
@pytest.mark.parametrize("dim,min_norm", [(3, 2.0), (6, 5.1)])
def test_low_norm_tries_match_scalar_loop(monkeypatch, tries, dim, min_norm, draws):
    # At these thresholds about one observable draw in six falls below
    # _MIN_NORM, so some lanes fail a try after rejecting others, in
    # later rounds and in a round's later tries.  Those lanes are bad,
    # as the scalar loop raises there; a lane that takes an earlier try
    # keeps its verdict.  Failed tries must move their lanes on by a
    # whole try, segmented draws included, for the jumps to hold.
    rounds = []
    taken_tries = engine._taken_tries

    def spy(rejected, lanes):
        if rejected.size > lanes:
            rounds.append(rejected.size // lanes)
        return taken_tries(rejected, lanes)

    monkeypatch.setattr(engine, "_taken_tries", spy)
    basis = basis_for(dim)
    with mock.patch.object(sampling, "_MIN_NORM", min_norm), _tries_per_round(tries), _draws(draws):
        margins, bad = _appendix_c_scored(5, 60, dim)
        failing = _tries_before_failing("appendix-c", 60, 5, dim)
        for i in np.flatnonzero(~bad):
            assert margins[i] == engine._sample("appendix-c", basis, 5, int(i), 0.0)[0].margin
    assert np.flatnonzero(bad).tolist() == sorted(failing)
    assert any(failing.values()) and not all(failing.values())
    assert (tries == 1) == (not rounds)


@pytest.mark.parametrize("tries", _TRIES)
@pytest.mark.parametrize("budget", [1, 2, 4])
def test_appendix_c_budget_runs_out_as_scalar_loop(monkeypatch, tries, budget):
    # Half the tries keep nonzero means, so that some lanes spend their
    # budget, in a round of one try or of several: those lanes are bad,
    # as the scalar loop raises.
    project_rows = engine._project_orthogonal_rows
    monkeypatch.setattr(
        engine, "_project_orthogonal_rows",
        lambda p, a, b: np.where((p[:, 0] > 0)[:, None], project_rows(p, a, b), p),
    )
    basis = basis_for(3)
    with mock.patch.object(engine, "_APPENDIX_C_TRIES", budget), _tries_per_round(tries):
        margins, bad = _appendix_c_scored(3, 200, 3)
        failing = _failing_streams("appendix-c", 200, 3, 3)
        for i in np.flatnonzero(~bad):
            assert margins[i] == engine._sample("appendix-c", basis, 3, int(i), 0.0)[0].margin
    assert failing and np.flatnonzero(bad).tolist() == failing


@pytest.mark.parametrize("tries", _TRIES)
@pytest.mark.parametrize("dim,samples", [(3, 40), (6, 40), (10, 20)])
def test_appendix_c_builds_and_scores_only_the_taken_tries(monkeypatch, tries, dim, samples):
    # The rounds only decide: each chunk builds A and B of its accepted
    # lanes in one `observable_from_bloch_batch` call, 2 S rows in all
    # however many tries its lanes reject, and scores them in one call
    # of the relation's function.
    built, scored, rejected = [], [], []
    build, shared, taken_tries = bloch.observable_from_bloch_batch, relations._appendix_c, engine._taken_tries

    def build_spy(vec, basis):
        built.append(len(vec))
        return build(vec, basis)

    def score_spy(a, b, rho, basis):
        scored.append(len(rho.p))
        return shared(a, b, rho, basis)

    def taken_spy(mask, lanes):
        rejected.append(int(mask.sum()))
        return taken_tries(mask, lanes)

    monkeypatch.setattr(bloch, "observable_from_bloch_batch", build_spy)
    monkeypatch.setattr(relations, "_appendix_c", score_spy)
    monkeypatch.setattr(engine, "_taken_tries", taken_spy)
    with mock.patch.object(sampling, "ENGINE_CHUNK", 16), _tries_per_round(tries):
        engine.fuzz("appendix-c", dim, samples, 0, 0.0)
    rows = [min(16, samples - start) for start in range(0, samples, 16)]
    assert built == [2 * n for n in rows] and sum(built) == 2 * samples
    assert scored == rows
    assert sum(rejected) > 0


@pytest.mark.parametrize("draws", _DRAWS)
@pytest.mark.parametrize("dim", [3, 6, 10])
def test_chunks_yield_appendix_c_draws_as_the_scalar_draw(dim, draws):
    # Appendix-c's draws are rows like any plan's: each lane's A, B and
    # state, as `chunks` yields them, are the objects the scalar draw
    # gives on that lane's stream, bit for bit.
    basis, seed = basis_for(dim), 11
    with mock.patch.object(sampling, "ENGINE_CHUNK", 8), _draws(draws):
        drawn = list(engine.chunks(engine.RELATIONS["appendix-c"], basis, seed, 20))
    assert len(drawn) == 3
    for rng, (a, b, state), _ in drawn:
        for k, i in enumerate(rng.streams.tolist()):
            draw = engine._appendix_c_draw(Xoshiro256pp(seed, stream=i), basis, i)
            oa, ob, rho = built(engine._TRY, draw, basis)
            for rows, obj in ((a, oa), (b, ob)):
                assert np.array_equal(_bits(rows.matrix[k]), _bits(obj.matrix.array))
                assert np.array_equal(_bits(rows.a[k]), _bits(obj.a))
                assert np.array_equal(_bits(rows.a_prime[k]), _bits(obj.a_prime))
            assert np.array_equal(_bits(state.rho[k]), _bits(rho.rho.array))
            assert np.array_equal(_bits(state.p[k]), _bits(rho.p))


# A check that fails every observable whose first coefficient is above
# this: at N = 6 some streams reject a try with such a direction before
# the try they take, and a few take one.
_HIGH_COEFFICIENT = 0.3


def _strict_on_high_coefficients(monkeypatch):
    checks = bloch._observable_checks

    def stricter(matrix, a):
        norm2, out = checks(matrix, a)
        return norm2, [*out, (a[..., 0] <= _HIGH_COEFFICIENT, "a[0] = {} too high", a[..., 0])]

    monkeypatch.setattr(bloch, "_observable_checks", stricter)


def _try_directions(samples, seed, dim):
    """The largest first coefficient of A and B of every try of each
    stream on the per-stream loop, in order."""
    basis = basis_for(dim)
    project_rows = engine._project_orthogonal_rows
    tries = {}
    for i in range(samples):
        seen = tries[i] = []

        def spy(p, a, b):
            seen.append(max(a[0, 0], b[0, 0]))
            return project_rows(p, a, b)

        with mock.patch.object(engine, "_project_orthogonal_rows", spy):
            try:
                engine._sample("appendix-c", basis, seed, i, 0.0)
            except ValueError:
                pass
    return tries


@pytest.mark.parametrize("tries", _TRIES)
def test_observables_fail_only_on_the_try_taken(monkeypatch, tries):
    # Only the try taken builds A and B, on both paths: a direction the
    # observable checks refuse fails a stream that takes its try, with
    # the scalar exception, and fails no stream that rejects its try.
    dim, samples, seed = 6, 60, 3
    _strict_on_high_coefficients(monkeypatch)
    directions = _try_directions(samples, seed, dim)
    high_taken = [i for i, seen in directions.items() if seen[-1] > _HIGH_COEFFICIENT]
    high_rejected = {i for i, seen in directions.items() if max(seen[:-1], default=0.0) > _HIGH_COEFFICIENT}
    with _tries_per_round(tries):
        _, bad = _appendix_c_scored(seed, samples, dim)
        failing = _failing_streams("appendix-c", samples, seed, dim)
        with mock.patch.object(sampling, "ENGINE_CHUNK", 16), pytest.raises(ValueError) as lanes:
            engine.fuzz("appendix-c", dim, samples, seed, 0.0)
    assert np.flatnonzero(bad).tolist() == failing == high_taken
    assert high_rejected - set(failing)
    with pytest.raises(ValueError, match="too high") as scalar:
        engine._sample("appendix-c", basis_for(dim), seed, failing[0], 0.0)
    assert str(lanes.value) == str(scalar.value)


def _stack_draws(draws):
    """Batch rows holding the scalar (A, B, state) draws, one per row."""

    def stack(rows):
        return [np.array(column) for column in zip(*rows)]

    a, b = (
        bloch.ObservableBatch(*stack((o.matrix.array, o.a, o.a_prime, o.norm2, False) for o in objs))
        for objs in list(zip(*draws))[:2]
    )
    return a, b, bloch.StateBatch(*stack((s.rho.array, s.p, s.purity, False) for _, _, s in draws))


@pytest.mark.parametrize("axis", [0, 1], ids=["a", "b"])
@pytest.mark.parametrize("tries", _TRIES)
def test_draws_accept_exactly_the_means_the_check_allows(monkeypatch, tries, axis):
    # Raise the zero-mean tolerance to 1e-6 and shift each projected p
    # along a (or b), so that its tries' means spread over [0, 2e-6):
    # both draws must accept only tries the check passes, and some of
    # them above half the tolerance; the check must reject a mean just
    # above it.
    tol = 1e-6
    monkeypatch.setattr(relations, "ZERO_MEAN_TOL", tol)
    project_rows = engine._project_orthogonal_rows

    def shifted_rows(p, a, b):  # shifted by [0, 2 tol), from the unprojected p
        v = (a, b)[axis]
        shift = 2.0 * tol * np.mod(np.abs(p[:, 0]) * 1e3, 1.0)
        return project_rows(p, a, b) + (shift / row_dot(v, v))[:, None] * v

    monkeypatch.setattr(engine, "_project_orthogonal_rows", shifted_rows)
    with mock.patch.object(sampling, "ENGINE_CHUNK", 16), _tries_per_round(tries):
        lanes = _margins("appendix-c", 40, 5, dim=3)
    with _scalar_only():
        assert np.array_equal(lanes, _margins("appendix-c", 40, 5, dim=3))
    basis = basis_for(3)
    draws = [built(engine._TRY, engine._appendix_c_draw(Xoshiro256pp(5, stream=i), basis, i), basis)
             for i in range(40)]
    means = [max(abs(float(a.a @ s.p)), abs(float(b.a @ s.p))) for a, b, s in draws]
    assert tol / 2 < max(means) <= tol
    widest = int(np.argmax(means))
    batch = _stack_draws(draws[widest : widest + 1])
    for limit, rejects in ((means[widest], False), (np.nextafter(means[widest], 0.0), True)):
        monkeypatch.setattr(relations, "ZERO_MEAN_TOL", limit)
        assert _raises(relations.check_appendix_c, *draws[widest], basis) == rejects
        assert engine._lane_values(relations._appendix_c(*batch, basis))[1].tolist() == [rejects]


@pytest.mark.parametrize("other", [2, 4])
def test_appendix_c_checkers_reject_a_basis_of_another_dim(other):
    # The checker raises DimensionMismatch on operands of N = 3 and a
    # basis of another N; the engine draws its rows on the basis it
    # checks them with.
    basis = basis_for(3)
    draw = built(engine._TRY, engine._appendix_c_draw(Xoshiro256pp(5, stream=0), basis, 0), basis)
    with pytest.raises(DimensionMismatch):
        relations.check_appendix_c(*draw, basis_for(other))


def test_appendix_c_holds_at_its_own_tolerance(monkeypatch):
    # Margins of -5e-10 hold at appendix-c's 1e-9, not at the default 1e-10.
    # The relation's function scores every lane.
    shared = relations._appendix_c

    def shifted(a, b, state, basis):
        lhs, rhs, checks = shared(a, b, state, basis)
        return np.zeros_like(rhs), np.full_like(rhs, 5e-10), checks

    monkeypatch.setattr(relations, "_appendix_c", shifted)
    summary = engine.fuzz("appendix-c", 3, 20, 0, 0.0)
    monkeypatch.setattr(
        relations, "check_appendix_c",
        lambda a, b, s, basis: relations._verdict("appendix_c", 0.0, 5e-10, relations.APPENDIX_C_TOL),
    )
    with _scalar_only():
        expected = engine.fuzz("appendix-c", 3, 20, 0, 0.0)
    assert summary["holds"] and _summary_reprs(summary) == _summary_reprs(expected)


def test_lane_only_failure_is_reported(monkeypatch):
    # A check that fails on row 3 of the lanes alone.
    shared = relations._theorem1

    def flag_stream_3(a, b, state):
        lhs, rhs, checks = shared(a, b, state)
        if state.p.ndim == 1:
            return lhs, rhs, checks
        return lhs, rhs, [*checks, (np.arange(len(lhs)) != 3, NumericsError, "lanes only")]

    monkeypatch.setattr(relations, "_theorem1", flag_stream_3)
    with pytest.raises(NumericsError, match="stream 3"):
        engine.fuzz("theorem1", 2, 10, 0, 0.0)


def _raises(fn, *args):
    try:
        fn(*args)
    except (ValueError, ArithmeticError):
        return True
    return False


def test_state_checks_flag_the_rows_scalar_rejects(basis2):
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(40):
        p = rng.normal(size=3)
        pure = bloch.state_to_matrix(p / np.linalg.norm(p), basis2).rho.array
        # |p| past 1 by 1e-11 passes, by 1e-10 fails the pure-norm bound,
        # by 1e-8 the PSD floor.
        for norm in (0.5, 1.0, 1.0 + 1e-11, 1.0 + 1e-10, 1.0 + 1e-8):
            rows.append(np.eye(2) / 2 + norm * (pure - np.eye(2) / 2))
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rows.append(pure + 1e-13 * noise)  # absorbed asymmetry
        rows.append(pure + 1e-11 * noise)  # rejected asymmetry
        rows.append(pure * (1.0 + 1e-11))  # trace off
        rows.append(np.where(rng.random((2, 2)) < 0.3, np.nan, pure))

    def scalar(m):
        return bloch.state_from_matrix(linalg.HermitianMatrix(m), basis2)

    batch = bloch.state_from_matrix_batch(np.array(rows), basis2)
    rejected = [_raises(scalar, m) for m in rows]
    assert 0 < sum(rejected) < len(rows)
    assert batch.bad.tolist() == rejected
    for i in np.flatnonzero(~batch.bad):
        state = scalar(rows[i])
        assert np.array_equal(batch.rho[i], state.rho.array)
        assert np.array_equal(batch.p[i], state.p) and batch.purity[i] == state.purity


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
def test_observable_checks_flag_the_rows_scalar_rejects(basis2):
    # Large coefficients break the norm and A^2 cross-checks by round-off;
    # at 1e160 their squares overflow, and the residuals are NaN.
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-1, 7, size=(300, 1))
    vecs[::37, 1] = np.inf
    vecs[::41, 0] = np.nan
    vecs[5] = [1e160, 0.0, 0.0]
    batch = bloch.observable_from_bloch_batch(vecs, basis2)
    rejected = [_raises(bloch.observable_from_bloch, v, basis2) for v in vecs]
    assert rejected[5] and 0 < sum(rejected) < len(vecs)
    assert batch.bad.tolist() == rejected
    for i in np.flatnonzero(~batch.bad):
        obs = bloch.observable_from_bloch(vecs[i], basis2)
        assert np.array_equal(batch.matrix[i], obs.matrix.array) and batch.norm2[i] == obs.norm2


# The rows that draw a plan: every relation but appendix-c, whose
# rejection loop test_qudit_checkers_flag_the_rows_scalar_rejects covers.
_PLANNED = [relation for relation in RELATIONS if engine.RELATIONS[relation].plan is not None]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("relation", _PLANNED)
def test_checkers_flag_the_rows_scalar_rejects(basis2, relation):
    # Each row's checkers, called as the engine calls them, on pure, mixed
    # and completely mixed rows: each checker's preconditions reject some
    # of them.
    row = engine.RELATIONS[relation]
    n = 60
    plan = ("alternating", _DIR, _DIR)
    drawn, a, b = built(plan, sampling.draw_batches(plan, XoshiroLanes(9, range(n)), basis2), basis2)
    rho = np.where((np.arange(n) % 3 == 2)[:, None, None], np.eye(2) / 2, drawn.rho)
    state = bloch.state_from_matrix_batch(rho, basis2)
    checked = engine._call(row.shared, row, plan, (state, a, b), theta_ab=1.1)
    margins, bad = engine._lane_values(checked)
    margins = margins.reshape(n, -1)  # a column per verdict
    for i in range(n):
        rng = Xoshiro256pp(9, stream=i)
        rng.complex_gaussians(4)  # the state's draw
        pair = (draw_observable(rng, basis2), draw_observable(rng, basis2))
        try:
            state = bloch.state_from_matrix(linalg.HermitianMatrix(rho[i]), basis2)
            verdicts = engine._call(row.check[0], row, plan, (state, *pair), theta_ab=1.1)
        except (ValueError, ArithmeticError):
            assert bad[i]
            continue
        verdicts = verdicts if isinstance(verdicts, tuple) else (verdicts,)
        assert not bad[i] and margins[i].tolist() == [v.margin for v in verdicts]


def test_theorem1_flags_variance_above_norm(basis2):
    # Validated objects cannot reach this check; shrink a stored norm.
    lanes = XoshiroLanes(2, range(50))
    plan = ("haar_pure", _DIR, _DIR)
    state, a, b = built(plan, sampling.draw_batches(plan, lanes, basis2), basis2)
    assert not engine._lane_values(relations._theorem1(a, b, state))[1].any()
    shrunk = a._replace(norm2=0.5 * a.norm2)
    bad = engine._lane_values(relations._theorem1(shrunk, b, state))[1]
    sa = row_dot(a.a, state.p)
    assert bad.any() and bad.tolist() == (sa * sa > 0.5 * state.purity + 1e-10).tolist()


def _asymmetric_basis(basis):
    # A copy of basis whose first generator with a real entry [0, 1] has
    # that entry 1e-14 off its mirror, an asymmetry HermitianMatrix
    # absorbs, and the index of that generator.
    stack = basis.stacked().copy()
    j = int(np.flatnonzero(stack[:, 0, 1].real)[0])
    stack[j, 0, 1] += 1e-14
    tensors = (dict(basis.f_tensor), dict(basis.d_tensor))
    return sun_basis.GeneratorBasis(basis.dim, basis.generators, *tensors, stack, basis._d_ordered), j


@pytest.mark.parametrize(
    "dim,asymmetric",
    [(3, False), (6, False), (3, True), (6, True)],
    ids=["3", "6", "3-asymmetric", "6-asymmetric"],
)
def test_reconstruction_flags_the_rows_scalar_rejects(monkeypatch, dim, asymmetric):
    # Bloch vectors of random mixed states, scaled: past the physical
    # body the eigenvalue floor rejects them (UnphysicalState); rows with
    # a NaN raise another ValueError.  The floor is QuantumState's, on the
    # symmetrized reconstruction, which with the asymmetric basis differs
    # from the reconstruction on the rows with a component along its
    # asymmetric generator: the one solve is of the symmetrized stack.
    basis = basis_for(dim)
    rng = np.random.default_rng(dim)
    (mixed,) = sampling.draw_batches(("hs_mixed",), XoshiroLanes(4, range(60)), basis)
    p = mixed.p * rng.uniform(0.5, 3.0, size=(60, 1))
    if asymmetric:
        basis, j = _asymmetric_basis(basis)
        p[np.arange(60) % 4 != 1, j] = 0.0
    p[::13, 0] = np.nan
    solved = []
    min_eigenvalue = bloch._min_eigenvalue

    def spy(arr):
        solved.append(arr.copy())
        return min_eigenvalue(arr)

    monkeypatch.setattr(bloch, "_min_eigenvalue", spy)

    def scalar(row):
        try:
            return bloch.state_to_matrix(row, basis), None
        except bloch.UnphysicalState:
            return None, "unphysical"
        except ValueError:
            return None, "other"

    batch, unphysical = bloch.state_to_matrix_batch(p, basis)
    assert len(solved) == 1
    assert np.array_equal(solved[0].view(np.uint64), batch.rho.view(np.uint64))
    outcomes = [scalar(row) for row in p]
    raised = [error for _, error in outcomes]
    assert {"unphysical", "other", None} == set(raised)
    assert batch.bad.tolist() == [error is not None for error in raised]
    assert unphysical.tolist() == [error == "unphysical" for error in raised]
    for i in np.flatnonzero(~batch.bad):
        state = outcomes[i][0]
        assert np.array_equal(batch.rho[i], state.rho.array)
        assert np.array_equal(batch.p[i], state.p) and batch.purity[i] == state.purity


_BLOCK = sun_basis._BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("dim", [2, 3, 6, 10, 16])
def test_stacked_observables_match_their_own_builds(dim, rows):
    # A and B built in one call on their stacked rows, across the
    # kernel's row blocks (one row included), against a call each.
    basis = basis_for(dim)
    g = np.random.default_rng(dim * 1000 + rows).normal(size=(2 * rows, basis.n_generators))
    vec = g / np.sqrt(row_dot(g, g))[:, None]
    together = bloch.observable_from_bloch_batch(vec, basis)
    for k in range(2):
        part = slice(k * rows, (k + 1) * rows)
        alone = bloch.observable_from_bloch_batch(vec[part], basis)
        _assert_same_fields(bloch.ObservableBatch._make(f[part] for f in together), alone)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("dim", [3, 6])
def test_qudit_observable_checks_flag_the_rows_scalar_rejects(dim):
    basis = basis_for(dim)
    rng = np.random.default_rng(dim)
    n = basis.n_generators
    vecs = rng.normal(size=(200, n)) * 10.0 ** rng.uniform(-1, 6, size=(200, 1))
    vecs[::37, 1] = np.inf
    batch = bloch.observable_from_bloch_batch(vecs, basis)
    rejected = [_raises(bloch.observable_from_bloch, v, basis) for v in vecs]
    assert 0 < sum(rejected) < len(vecs)
    assert batch.bad.tolist() == rejected
    for i in np.flatnonzero(~batch.bad):
        obs = bloch.observable_from_bloch(vecs[i], basis)
        assert np.array_equal(batch.matrix[i], obs.matrix.array)
        assert np.array_equal(batch.a_prime[i], obs.a_prime) and batch.norm2[i] == obs.norm2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("relation", QUDIT_RELATIONS)
@pytest.mark.parametrize("dim", [3, 6])
def test_qudit_checkers_flag_the_rows_scalar_rejects(relation, dim):
    # Accepted appendix-c draws, one stream a row, and on every third row
    # a fresh mixed state, whose nonzero means appendix-c rejects.
    basis = basis_for(dim)
    a, b, state = _stack_draws(
        [built(engine._TRY, engine._appendix_c_draw(Xoshiro256pp(6, stream=i), basis, i), basis)
         for i in range(45)]
    )
    (mixed,) = sampling.draw_batches(("hs_mixed",), XoshiroLanes(7, range(45)), basis)
    swap = np.arange(45) % 3 == 0
    for field, drawn in zip(state, mixed):
        field[swap] = drawn[swap]
    row = engine.RELATIONS[relation]
    checked = engine._call(row.shared, row, engine._TRY, (a, b, state), basis=basis)
    margins, flagged = engine._lane_values(checked)
    for i in range(45):
        oa = bloch.observable_from_bloch(a.a[i], basis)
        ob = bloch.observable_from_bloch(b.a[i], basis)
        if swap[i]:
            rho = bloch.state_from_matrix(linalg.HermitianMatrix(state.rho[i]), basis)
        else:
            rho = bloch.state_to_matrix(state.p[i], basis)
        assert np.array_equal(rho.rho.array, state.rho[i]) and np.array_equal(rho.p, state.p[i])
        try:
            margin = engine._call(row.check[0], row, engine._TRY, (oa, ob, rho), basis=basis).margin
        except (ValueError, ArithmeticError):
            assert flagged[i]
            continue
        assert not flagged[i] and margins[i] == margin
    assert flagged.any() == (relation == "appendix-c")


# ---------------------------------------------------------------------------
# the numpy-vs-scalar equalities the engine relies on


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(20151105)
    n = 3000
    scale = 10.0 ** rng.uniform(-4, 4, size=(n, 1, 1))

    def complex_stack(shape):
        return (rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))) * scale[:, :, :1]

    g = complex_stack((2, 2))
    herm = (g + g.conj().swapaxes(1, 2)) / 2.0
    rho = herm @ herm
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return {
        "n": n,
        "g": g,
        "herm": herm,
        "rho": rho,
        "u": rng.normal(size=(n, 3)) * scale[:, 0],
        "v": rng.normal(size=(n, 3)),
        "angle": 2.0 * math.pi * rng.random(n),
        "positive": rng.random(n) * scale[:, 0, 0],
    }


def _each(fn, *stacks):
    return np.array([fn(*rows) for rows in zip(*stacks)])


def test_batched_einsums_are_bit_identical(inputs, basis2):
    stack = basis2.stacked()
    h, rho, u, v = inputs["herm"], inputs["rho"], inputs["u"], inputs["v"]
    assert np.array_equal(
        np.einsum("nab,jba->nj", rho, stack), _each(lambda r: np.einsum("ab,jba->j", r, stack), rho)
    )
    assert np.array_equal(
        np.einsum("nj,jab->nab", u, stack), _each(lambda x: np.einsum("j,jab->ab", x, stack), u)
    )
    assert np.array_equal(
        np.einsum("nab,nbc,nca->n", h, h, rho),
        _each(lambda a, r: np.einsum("ab,bc,ca->", a, a, r), h, rho),
    )
    shared = np.broadcast_to(h[0], h.shape)
    assert np.array_equal(
        np.einsum("nab,nbc,nca->n", shared, shared, rho),
        _each(lambda r: np.einsum("ab,bc,ca->", h[0], h[0], r), rho),
    )
    assert np.array_equal(
        np.einsum("nab,nba->n", h, rho), _each(lambda a, r: np.einsum("ab,ba->", a, r), h, rho)
    )
    # One function on the stack and on each row: the qubit checkers'
    # wedge, whose stacked einsum sums each row as the einsum of one.
    assert np.array_equal(relations._wedge_norm2(u, v), _each(relations._wedge_norm2, u, v))


def test_stacked_linalg_is_bit_identical(inputs):
    g, h = inputs["g"], inputs["herm"]
    q, r = np.linalg.qr(g)
    single = [np.linalg.qr(m) for m in g]
    assert np.array_equal(q, [s[0] for s in single]) and np.array_equal(r, [s[1] for s in single])
    w, vecs = np.linalg.eigh(h)
    single = [np.linalg.eigh(m) for m in h]
    assert np.array_equal(w, [s[0] for s in single])
    assert np.array_equal(vecs, [s[1] for s in single])
    assert np.array_equal(g @ h - h @ g, _each(lambda a, b: a @ b - b @ a, g, h))
    assert np.array_equal(g @ g.conj().swapaxes(1, 2), _each(lambda a: a @ a.conj().T, g))
    # Matrix times a strided column (gemv), then a row times a column (dot).
    col = vecs[:, :, -1:]
    assert np.array_equal((g @ col)[:, :, 0], _each(lambda a, m: a @ m[:, -1], g, vecs))
    bra = col.conj().swapaxes(1, 2)
    got = (bra @ (g @ col))[:, 0, 0]
    assert np.array_equal(got, _each(lambda a, m: m[:, -1].conj() @ (a @ m[:, -1]), g, vecs))


def test_row_dot_matches_1d_dot(inputs):
    u, v, g = inputs["u"], inputs["v"], inputs["g"]
    assert np.array_equal(row_dot(u, v), _each(lambda x, y: x @ y, u, v))
    z = g.reshape(-1, 4)
    assert np.array_equal(row_dot(z, z.conj()), _each(lambda x: x @ x.conj(), z))
    strided = g.reshape(-1, 4).real  # the .real view of a complex stack
    assert np.array_equal(row_dot(strided, strided), _each(lambda x: x @ x, strided))
    assert np.array_equal(np.sqrt(row_dot(u, u)), _each(np.linalg.norm, u))
    # One vector against the rows, on either side: the pair scan's fixed
    # observables.
    assert np.array_equal(_bits(row_dot(u[0], v)), _bits(_each(lambda y: u[0] @ y, v)))
    assert np.array_equal(_bits(row_dot(v, u[0])), _bits(_each(lambda y: y @ u[0], v)))


def test_elementwise_ufuncs_match_math(inputs):
    angle, x = inputs["angle"], inputs["positive"]
    assert np.array_equal(np.sqrt(x), _each(math.sqrt, x))
    assert np.array_equal(np.cos(angle), _each(math.cos, angle))
    assert np.array_equal(np.sin(angle), _each(math.sin, angle))
    # Complex abs of whole stacks equals abs of each short vector (the
    # phases of draw_pure); per_element's abs equals the numpy scalar's.
    z = inputs["g"][:, 0, :]
    assert np.array_equal(np.abs(z), _each(np.abs, z))
    assert np.array_equal(per_element(abs, z), [[float(abs(c)) for c in row] for row in z])


# ---------------------------------------------------------------------------
# the same equalities per N, up to the dimension cap


@pytest.fixture(scope="module", params=[3, 4, 6, 10, 16], ids=lambda n: f"N{n}")
def qudit(request):
    # 300 rows of what the engine computes on at this N: pure and mixed
    # states, observables and their squares, and the unsymmetrized
    # reconstruction of a Bloch vector.
    n = request.param
    basis = basis_for(n)
    lanes = XoshiroLanes(20151105, range(300))
    g = sampling._complex_pairs(lanes.gaussians(2 * n * n)).reshape(-1, n, n)
    rho = np.concatenate([sampling._pure_rho(g[:150]), sampling._mixed_rho(g[150:])])
    draws = lanes.gaussians(basis.n_generators)  # odd lengths are strided rows
    vec = draws / np.sqrt(row_dot(draws, draws))[:, None]
    obs = np.einsum("nj,jab->nab", vec, basis.stacked())
    p = np.ascontiguousarray(np.einsum("nab,jba->nj", rho, basis.stacked()).real)
    recon = np.eye(n) / n + 0.5 * np.einsum("nj,jab->nab", 0.9 * p, basis.stacked())
    return {"basis": basis, "g": g, "rho": rho, "draws": draws, "vec": vec, "obs": obs,
            "sq": obs @ obs, "p": p, "recon": recon}


def test_stacked_eigvalsh_matches_single(qudit):
    for stack in (qudit["rho"], qudit["recon"], qudit["obs"]):
        assert np.array_equal(np.linalg.eigvalsh(stack), _each(np.linalg.eigvalsh, stack))


_EINSUMS = {
    "nj,jab->nab": lambda q: (q["vec"], q["basis"].stacked()),
    "nab,jba->nj": lambda q: (q["sq"], q["basis"].stacked()),
    "nab,nbc,nca->n": lambda q: (q["obs"], q["obs"], q["rho"]),
    "nab,nba->n": lambda q: (q["obs"], q["rho"]),
    # Tr[A² rho] of one A broadcast against the states, as
    # variance._second_moment computes it on a stack.
    "nab,nbc,nca->n A shared": lambda q: (
        *[np.broadcast_to(q["obs"][0], q["rho"].shape)] * 2, q["rho"]
    ),
}


@pytest.mark.parametrize("key", sorted(_EINSUMS))
def test_einsum_matches_1d(qudit, key):
    operands = _EINSUMS[key](qudit)
    subscripts = key.partition(" ")[0]
    single = subscripts.replace("n", "")
    stacked = [term.startswith("n") for term in subscripts.split("->")[0].split(",")]

    def one_row(*rows):
        it = iter(rows)
        return np.einsum(single, *(next(it) if s else op for s, op in zip(stacked, operands)))

    rows = [op for s, op in zip(stacked, operands) if s]
    assert np.array_equal(np.einsum(subscripts, *operands), _each(one_row, *rows))


def test_stacked_matmul_and_trace_match_single(qudit):
    obs, rho = qudit["obs"], qudit["rho"]
    assert np.array_equal(obs @ rho - rho @ obs, _each(lambda a, r: a @ r - r @ a, obs, rho))
    assert np.array_equal(np.trace(rho, axis1=1, axis2=2), _each(np.trace, rho))
    assert np.array_equal(np.trace(qudit["sq"], axis1=1, axis2=2), _each(np.trace, qudit["sq"]))


def test_stacked_state_draws_match_single(qudit):
    g = qudit["g"]
    for draw in (sampling._pure_rho, sampling._mixed_rho):
        assert np.array_equal(draw(g), _each(lambda m: draw(m[None])[0], g))


def test_row_dot_matches_1d_dot_at_generator_length(qudit):
    vec, p, draws = qudit["vec"], qudit["p"], qudit["draws"]
    assert np.array_equal(row_dot(vec, p), _each(lambda u, v: u @ v, vec, p))
    assert np.array_equal(row_dot(draws, draws), _each(lambda u: u @ u, draws))
    real = np.einsum("nab,jba->nj", qudit["rho"], qudit["basis"].stacked()).real  # strided
    assert np.array_equal(row_dot(real, real), _each(lambda u: u @ u, real))


def test_sqrt_row_dot_matches_norm(qudit):
    draws = qudit["draws"]
    assert np.array_equal(np.sqrt(row_dot(draws, draws)), _each(np.linalg.norm, draws))


def test_d_contract_rows_match_1d(qudit):
    basis, vec = qudit["basis"], qudit["vec"]
    got = basis.d_contract(vec)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _each(basis.d_contract, vec))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite rows on purpose
@pytest.mark.parametrize("dim", range(2, 17))
def test_wedge_blocks_match_one_row_calls(dim):
    # The wedge of a stack, run in blocks of rows, against its call on
    # each row alone, bit for bit: at one block, one row either side of
    # it, and several blocks, on random rows and on parallel, zero and
    # non-finite ones.  At N = 2 a whole chunk is one block.
    n = dim * dim - 1
    block = relations._WEDGE_ENTRIES // n**2 if n**2 <= relations._EINSUM_BUFFER else 1
    assert dim > 2 or block >= sampling.ENGINE_CHUNK
    rng = np.random.default_rng(dim)
    for rows in sorted({1, max(block - 1, 1), block, block + 1, 300}):
        u = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        v = rng.normal(size=(rows, n))
        parallel, zero, infinite, nan = (list(rng.permutation(rows)) * 4)[:4]
        v[parallel] = -2.5 * u[parallel]
        u[zero] = 0.0
        u[infinite, rng.integers(n)] = np.inf
        v[infinite, rng.integers(n)] = -np.inf
        v[nan, rng.integers(n)] = np.nan
        got = relations._wedge_norm2(u, v)
        assert got.shape == (rows,)
        assert np.array_equal(_bits(got), _bits(_each(relations._wedge_norm2, u, v)))
        # One vector against the rows, as a fixed observable's.
        got = relations._wedge_norm2(u[-1], v)
        assert np.array_equal(_bits(got), _bits(_each(lambda y: relations._wedge_norm2(u[-1], y), v)))


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025])
def test_per_element_matches_a_python_loop(size):
    # Blocks of per_element's fn, read by np.fromiter, against a list of
    # fn's Python floats, bit for bit, either side of one block.
    rng = np.random.default_rng(size)
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    for fn, x in ((math.log, rng.random(size)), (math.acos, rng.uniform(-1.0, 1.0, size)),
                  (abs, z), (lambda t: t**2, rng.normal(size=size) * 1e100)):
        got = per_element(fn, x)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert np.array_equal(_bits(got), _bits(np.array([fn(t) for t in x.tolist()], float)))
        assert np.array_equal(per_element(fn, x.reshape(-1, 1)), got.reshape(-1, 1))
    # One numpy scalar gives fn's Python float.
    for fn, x in ((math.log, np.float64(0.3)), (abs, np.complex128(3 - 4j))):
        assert type(per_element(fn, x)) is float and per_element(fn, x) == fn(x.item())


def _extreme_rows(rng, shape, complex_rows):
    # Rows at scales from subnormal to overflow, a fifth of the entries
    # +0 or -0, and in a stack a few non-finite entries.
    x = rng.normal(size=shape)
    if complex_rows:
        x = x + 1j * rng.normal(size=shape)
    x *= 10.0 ** rng.uniform(-315, 300, size=(shape[0],) + (1,) * (len(shape) - 1))
    for part in (x.real, x.imag) if complex_rows else (x,):
        zero = rng.random(shape) < 0.2
        part[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    if shape[0] > 1:
        bad = [np.inf, -np.nan, complex(1.0, np.inf) if complex_rows else -np.inf]
        x.flat[rng.integers(x.size, size=3)] = bad
    return x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
@pytest.mark.parametrize("dim", range(2, 17))
def test_generator_kernels_match_dense_einsum(dim):
    # trace_rows and combine_rows against the dense einsums they replace,
    # bit for bit, on one row, on 64 and on a stack that spans three row
    # blocks; the run sums also at N = 2, where trace_rows takes the dense
    # call and combine_rows adds the einsum's terms itself.
    basis = basis_for(dim)
    stack, n2 = basis.stacked(), dim * dim
    rng = np.random.default_rng(dim)
    for rows in (1, 64, 2 * sun_basis._BLOCK_ROWS + 3):
        m = _extreme_rows(rng, (rows, dim, dim), True)
        p = _extreme_rows(rng, (rows, n2 - 1), False)
        traces = np.einsum("nab,jba->nj", m, stack)
        sums = np.einsum("nj,jab->nab", p, stack)
        assert np.array_equal(_bits(basis.trace_rows(m)), _bits(traces))
        assert np.array_equal(_bits(basis.combine_rows(p)), _bits(sums))
        assert basis.trace_rows(m).flags.c_contiguous and basis.combine_rows(p).flags.c_contiguous
        runs = sun_basis._run_sums(
            m.reshape(rows, n2), basis._trace_runs,
            lambda bad: np.einsum("nab,jba->nj", m[bad], stack),
        )
        assert np.array_equal(_bits(runs), _bits(traces))
        runs = sun_basis._run_sums(
            p, basis._combine_runs,
            lambda bad: np.einsum("nj,jab->nab", p[bad], stack).reshape(-1, n2),
        )
        assert np.array_equal(_bits(runs), _bits(sums.reshape(rows, n2)))
        assert np.isfinite(traces).all() == (rows == 1) and np.isfinite(traces).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
@pytest.mark.parametrize("dim", range(2, 17))
def test_d_contract_rows_match_1d_bit_for_bit(dim):
    # Every row bit for bit: finite ones, ±0 and subnormal entries
    # included, and those with a non-finite entry, which the stacked call
    # recomputes with the 1-D one.
    basis = basis_for(dim)
    rng = np.random.default_rng(dim)
    a = _extreme_rows(rng, (64, basis.n_generators), False)
    a[:32] = np.where(np.isfinite(a[:32]), a[:32], -0.0) * 1e-150
    zeros = np.copysign(0.0, rng.normal(size=(64, basis.n_generators)))  # signed-zero terms
    a = np.concatenate([zeros, a])
    got = basis.d_contract(a)
    expected = _each(basis.d_contract, a)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(expected))
    assert np.isfinite(got[96:]).all() == (dim == 2)  # d is zero at N = 2
    # Finite rows whose sums overflow only together: none is recomputed.
    big = np.zeros((64, basis.n_generators))
    big[:, -1] = 1e154
    assert np.array_equal(basis.d_contract(big), _each(basis.d_contract, big))
