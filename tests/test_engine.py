"""The batched qubit engine against the scalar per-stream path.

`blochvar verify` at N = 2 runs every relation but appendix-c on lanes
(`XoshiroLanes`, `StateBatch`/`ObservableBatch`, the `*_batch`
checkers); the per-stream loop stays as the oracle.  These tests pin:

* margins and `_fuzz` summaries equal to the loop's bit for bit, across
  chunk boundaries, seeds 0 and 2**64 - 1 included;
* the lane RNG, masked re-draws included, equal to `Xoshiro256pp`;
* the same exception, raised for the same first failing stream;
* each numpy-vs-scalar equality the engine relies on, so that a numpy
  or libm upgrade that breaks one fails here by name.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochvar import basis_for, cli, sampling
from blochvar import bloch, linalg, relations, variance
from blochvar.errors import NumericsError
from blochvar.linalg import per_element, row_dot
from blochvar.sampling import Xoshiro256pp, XoshiroLanes, draw_observable, draw_observable_batch

LANES_RELATIONS = sorted(r for r, entry in cli._RELATIONS.items() if entry[3] is not None)
SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))


def _scalar_only(relation):
    """Patch that sends `relation` through the per-stream loop."""
    return mock.patch.dict(cli._RELATIONS, {relation: cli._RELATIONS[relation][:3] + (None,)})


def _margins(relation, samples, seed, theta_ab=math.pi / 4.0):
    return np.array([m for m, _, _ in cli._verdicts(relation, 2, samples, seed, theta_ab)])


def _summary_reprs(summary):
    return {key: repr(value) for key, value in summary.items()}


def test_engine_covers_the_qubit_catalogue():
    assert LANES_RELATIONS == sorted(set(cli._RELATIONS) - {"appendix-c"})


@pytest.mark.parametrize("relation", LANES_RELATIONS)
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, samples=st.integers(1, 40), chunk=st.integers(1, 16))
@example(seed=0, samples=33, chunk=8)
@example(seed=2**64 - 1, samples=17, chunk=16)
def test_engine_matches_scalar_loop(relation, seed, samples, chunk):
    with mock.patch.object(sampling, "ENGINE_CHUNK", chunk):
        lanes = _margins(relation, samples, seed)
        summary = cli._fuzz(relation, 2, samples, seed, math.pi / 4.0)
    with _scalar_only(relation):
        scalar = _margins(relation, samples, seed)
        expected = cli._fuzz(relation, 2, samples, seed, math.pi / 4.0)
    assert lanes.dtype == scalar.dtype == np.float64
    assert np.array_equal(lanes, scalar)
    assert _summary_reprs(summary) == _summary_reprs(expected)


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, theta_ab=st.floats(0.0, math.pi))
def test_three_obs_engine_matches_at_any_angle(seed, theta_ab):
    lanes = _margins("three-obs-equality", 30, seed, theta_ab)
    with _scalar_only("three-obs-equality"):
        assert np.array_equal(lanes, _margins("three-obs-equality", 30, seed, theta_ab))


@pytest.mark.parametrize("relation", ["theorem1", "state-dependent", "unit-vector"])
def test_default_chunk_boundary(relation):
    samples = sampling.ENGINE_CHUNK + 3
    with _scalar_only(relation):
        scalar = _margins(relation, samples, 20150223)
    assert np.array_equal(_margins(relation, samples, 20150223), scalar)


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
    assert np.array_equal(lanes.complex_gaussians(4), [rng.complex_gaussians(4) for rng in rngs])


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, masks=st.lists(st.lists(st.booleans(), min_size=9, max_size=9), max_size=4))
def test_masked_lanes_advance_alone(seed, masks):
    lanes = XoshiroLanes(seed, range(9))
    rngs = [Xoshiro256pp(seed, stream=k) for k in range(9)]
    for mask in masks:
        idx = np.flatnonzero(mask)
        got = lanes.gaussians(3, idx)
        assert got.shape == (idx.size, 3)
        expected = np.array([rngs[k].gaussians(3) for k in idx]).reshape(-1, 3)
        assert np.array_equal(got, expected)
    # Every lane resumes where its own stream stands.
    assert np.array_equal(lanes.gaussians(3), [rng.gaussians(3) for rng in rngs])


@pytest.mark.parametrize("min_norm", [1e-12, 1.0, 1.6])
def test_observable_redraw_lanes_match_scalar(basis2, min_norm):
    # Raising the threshold makes the rare zero-norm redraw common: at
    # 1.6 most lanes redraw, many of them more than once.
    with mock.patch.object(sampling, "_MIN_NORM", min_norm):
        batch = draw_observable_batch(XoshiroLanes(5, range(64)), basis2)
        scalar = [draw_observable(Xoshiro256pp(5, stream=k), basis2) for k in range(64)]
    assert not batch.bad.any()
    assert np.array_equal(batch.a, [obs.a for obs in scalar])
    assert np.array_equal(batch.matrix, [obs.matrix.array for obs in scalar])
    assert np.array_equal(batch.norm2, [obs.norm2 for obs in scalar])


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
# raise what the per-stream loop raises, for the same stream.  The last
# entry fails every stream (in the recipe, before any lane is drawn).
_FAILURES = [
    (bloch, "PSD_EIGENVALUE_FLOOR", 0.0, "pure-limit"),
    (bloch, "_CONSISTENCY_ATOL", 1e-15, "theorem1"),
    (bloch, "_TRACE_ATOL", 0.0, "appendix-b"),
    (variance, "_NEGATIVE_VARIANCE_FLOOR", 0.05, "state-dependent"),
    (variance, "_ZERO_NORM", 0.3, "triangle"),
    (variance, "_COS_EXCESS", -0.01, "triangle"),
    (relations, "_RADICAND_FLOOR", 0.01, "theorem1"),
    (linalg, "HERMITICITY_ATOL", -1.0, "mixed-limit"),
]


def _failing_streams(relation, samples, seed):
    basis = basis_for(2)
    failing = []
    for i in range(samples):
        try:
            cli._sample(relation, basis, seed, i, math.pi / 4.0)
        except (ValueError, ArithmeticError):
            failing.append(i)
    return failing


@pytest.mark.parametrize("module,name,value,relation", _FAILURES)
def test_first_failing_stream_raises_scalar_error(module, name, value, relation):
    with mock.patch.object(module, name, value):
        failing = _failing_streams(relation, 200, 3)
        with _scalar_only(relation), pytest.raises(Exception) as scalar:
            cli._fuzz(relation, 2, 200, 3, math.pi / 4.0)
        with mock.patch.object(sampling, "ENGINE_CHUNK", 16), pytest.raises(Exception) as lanes:
            cli._fuzz(relation, 2, 200, 3, math.pi / 4.0)
    assert type(lanes.value) is type(scalar.value)
    assert str(lanes.value) == str(scalar.value)
    if module is not linalg:
        # A stream past the first fails first, and others fail after it.
        assert 0 < failing[0] and len(failing) > 1


def test_lane_only_failure_is_reported(monkeypatch):
    recipe, checker = cli._RELATIONS["theorem1"][3]

    def flag_stream_3(rng, basis, state, theta_ab):
        margins, bad = checker(rng, basis, state, theta_ab)
        return margins, bad | (np.arange(bad.size) == 3)

    entry = cli._RELATIONS["theorem1"][:3] + ((recipe, flag_stream_3),)
    monkeypatch.setitem(cli._RELATIONS, "theorem1", entry)
    with pytest.raises(NumericsError, match="stream 3"):
        cli._fuzz("theorem1", 2, 10, 0, 0.0)


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
    # Large coefficients break the norm and A^2 cross-checks by round-off.
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-1, 7, size=(300, 1))
    vecs[::37, 1] = np.inf
    vecs[::41, 0] = np.nan
    batch = bloch.observable_from_bloch_batch(vecs, basis2)
    rejected = [_raises(bloch.observable_from_bloch, v, basis2) for v in vecs]
    assert 0 < sum(rejected) < len(vecs)
    assert batch.bad.tolist() == rejected
    for i in np.flatnonzero(~batch.bad):
        obs = bloch.observable_from_bloch(vecs[i], basis2)
        assert np.array_equal(batch.matrix[i], obs.matrix.array) and batch.norm2[i] == obs.norm2


# (lanes form, scalar form) of each checker, called as f(a, b, state).
_CHECKERS = [
    (relations.check_triangle_batch, relations.check_triangle),
    (relations.check_theorem1_batch, relations.check_theorem1),
    (relations.check_mixed_limit_batch, relations.check_mixed_limit),
    (relations.check_pure_limit_batch, relations.check_pure_limit),
    (cli._unit_vector_lanes, lambda a, b, s: cli._unit_vector(a, b, s)[0]),
    (
        lambda a, b, s: relations.check_three_observable_equality_batch(1.1, s),
        lambda a, b, s: relations.check_three_observable_equality(1.1, s),
    ),
    (
        lambda a, b, s: relations.check_appendix_b_batch(s),
        lambda a, b, s: relations.check_appendix_b(s),
    ),
    (relations.robertson_bound_batch, relations.robertson_bound),
    (
        lambda a, b, s: relations.state_dependent_bound_batch(a, b, s, -1),
        lambda a, b, s: relations.state_dependent_bound(a, b, s, -1),
    ),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("batch_form,scalar_form", _CHECKERS)
def test_checkers_flag_the_rows_scalar_rejects(basis2, batch_form, scalar_form):
    # Pure, mixed and completely mixed rows: each checker's preconditions
    # reject some of them.
    n = 60
    lanes = XoshiroLanes(9, range(n))
    drawn = sampling.draw_states_batch(lanes, basis2, np.arange(n) % 3 == 0)
    rho = np.where((np.arange(n) % 3 == 2)[:, None, None], np.eye(2) / 2, drawn.rho)
    margins, bad = batch_form(
        draw_observable_batch(lanes, basis2),
        draw_observable_batch(lanes, basis2),
        bloch.state_from_matrix_batch(rho, basis2),
    )
    for i in range(n):
        rng = Xoshiro256pp(9, stream=i)
        rng.complex_gaussians(4)  # the state's draw
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        try:
            state = bloch.state_from_matrix(linalg.HermitianMatrix(rho[i]), basis2)
            margin = scalar_form(a, b, state).margin
        except (ValueError, ArithmeticError):
            assert bad[i]
            continue
        assert not bad[i] and margins[i] == margin


def test_theorem1_flags_variance_above_norm(basis2):
    # Validated objects cannot reach this check; shrink a stored norm.
    lanes = XoshiroLanes(2, range(50))
    state = sampling.draw_states_batch(lanes, basis2, np.ones(50, dtype=bool))
    a = draw_observable_batch(lanes, basis2)
    b = draw_observable_batch(lanes, basis2)
    assert not relations.check_theorem1_batch(a, b, state)[1].any()
    shrunk = a._replace(norm2=0.5 * a.norm2)
    bad = relations.check_theorem1_batch(shrunk, b, state)[1]
    sa = row_dot(a.a, state.p)
    assert bad.any() and bad.tolist() == (sa * sa > 0.5 * state.purity + 1e-10).tolist()


def test_batches_need_a_qubit_basis(basis3):
    with pytest.raises(ValueError):
        bloch.observable_from_bloch_batch(np.zeros((2, 8)), basis3)
    with pytest.raises(ValueError):
        bloch.state_from_matrix_batch(np.zeros((2, 3, 3)), basis3)


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
    assert np.array_equal(
        relations._wedge_norm2_batch(u, v), _each(relations._wedge_norm2, u, v)
    )


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
