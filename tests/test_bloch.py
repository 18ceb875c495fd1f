import json

import numpy as np
import pytest

from blochvar import (
    DimensionMismatch,
    HermitianMatrix,
    Observable,
    QuantumState,
    UnphysicalState,
    basis_for,
    bloch,
    completely_mixed,
    linalg,
    matrix_from_json,
    observable_from_bloch,
    observable_from_matrix,
    state_from_matrix,
    state_to_matrix,
)
from blochvar.linalg import failures, hermitian, row_dot
from conftest import random_density, random_hermitian


def test_maximally_mixed_has_zero_vector(basis2):
    state = state_from_matrix(HermitianMatrix(np.eye(2) / 2), basis2)
    assert np.allclose(state.p, 0.0)
    assert state.purity == pytest.approx(0.0, abs=1e-15)


def test_computational_basis_state(basis2):
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    state = state_from_matrix(HermitianMatrix(ket0), basis2)
    assert np.allclose(state.p, [0.0, 0.0, 1.0], atol=1e-15)
    assert state.purity == pytest.approx(1.0, abs=1e-12)


def test_round_trip_vector_matrix(basis4, np_rng):
    rho = HermitianMatrix(random_density(np_rng, 4))
    state = state_from_matrix(rho, basis4)
    rebuilt = state_to_matrix(state.p, basis4)
    assert np.abs(rebuilt.rho.array - rho.array).max() < 1e-12
    again = state_from_matrix(rebuilt.rho, basis4)
    assert np.abs(again.p - state.p).max() < 1e-12


def test_zero_vector_reconstructs_identity(basis3):
    state = state_to_matrix(np.zeros(8), basis3)
    assert np.allclose(state.rho.array, np.eye(3) / 3)


def test_qubit_ball_is_entirely_physical(basis2, np_rng):
    for _ in range(50):
        direction = np_rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = np_rng.uniform(0.0, 1.0)
        state = state_to_matrix(radius * direction, basis2)
        assert state.purity == pytest.approx(radius**2, abs=1e-12)


def test_qutrit_pure_norm_along_single_axis_rejected(basis3):
    # |p|^2 = 4/3 = 2(1 - 1/3) is the pure-state norm, but along the
    # antisymmetric (1,2)-pair axis the reconstruction has a negative
    # eigenvalue: the Bloch body is not the full ball for N = 3.
    vec = np.zeros(8)
    vec[1] = np.sqrt(4.0 / 3.0)
    with pytest.raises(UnphysicalState, match="unphysical"):
        state_to_matrix(vec, basis3)


def test_trace_and_psd_rejection(basis2):
    with pytest.raises(UnphysicalState) as err:
        state_from_matrix(HermitianMatrix(np.eye(2)), basis2)
    assert str(err.value) == "trace 2.0 is not 1 within 1e-12"
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(UnphysicalState, match="eigenvalue"):
        state_from_matrix(HermitianMatrix(bad), basis2)


def test_observable_shift_invariance(basis2):
    base = observable_from_matrix(
        HermitianMatrix(np.array([[1, 0], [0, -1]], dtype=complex)), basis2
    )
    shifted = observable_from_matrix(
        HermitianMatrix(np.array([[6, 0], [0, 4]], dtype=complex)), basis2
    )
    assert np.allclose(base.a, shifted.a, atol=1e-14)
    assert np.allclose(base.matrix.array, shifted.matrix.array, atol=1e-14)
    assert shifted.original_trace == pytest.approx(10.0)


def test_sigma1_decomposition(basis2):
    obs = observable_from_matrix(
        HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex)), basis2
    )
    assert np.allclose(obs.a, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(obs.a_prime, 0.0, atol=1e-15)


def test_prime_norm_matches_trace_identity(basis3):
    obs = observable_from_bloch(np.eye(8)[0], basis3)
    arr = obs.matrix.array
    tr_a2 = np.trace(arr @ arr).real
    tr_a4 = np.trace(arr @ arr @ arr @ arr).real
    expected = 0.5 * (tr_a4 - tr_a2**2 / 3.0)
    assert obs.prime_norm2 == pytest.approx(expected, abs=1e-12)


def test_norm_identities_random(basis3, np_rng):
    for _ in range(30):
        obs = observable_from_matrix(HermitianMatrix(random_hermitian(np_rng, 3)), basis3)
        arr = obs.matrix.array
        tr_a2 = np.trace(arr @ arr).real
        tr_a4 = np.trace(arr @ arr @ arr @ arr).real
        assert obs.norm2 == pytest.approx(0.5 * tr_a2, abs=1e-10)
        assert obs.prime_norm2 == pytest.approx(
            0.5 * (tr_a4 - tr_a2**2 / 3.0), abs=1e-10
        )


def test_expectation_equals_dot_product(basis3, np_rng):
    for _ in range(30):
        obs = observable_from_matrix(HermitianMatrix(random_hermitian(np_rng, 3)), basis3)
        state = state_from_matrix(HermitianMatrix(random_density(np_rng, 3)), basis3)
        direct = np.trace(obs.matrix.array @ state.rho.array).real
        assert direct == pytest.approx(float(obs.a @ state.p), abs=1e-11)


def test_purity_examples(basis2, basis3):
    assert completely_mixed(basis2).purity == pytest.approx(0.0, abs=1e-15)
    assert completely_mixed(basis3).purity == pytest.approx(0.0, abs=1e-15)
    pure3 = np.zeros((3, 3), dtype=complex)
    pure3[0, 0] = 1.0
    assert state_from_matrix(HermitianMatrix(pure3), basis3).purity == pytest.approx(
        4.0 / 3.0, abs=1e-12
    )
    # 2 (Tr[rho^2] - 1/2) = 2 (0.625 - 0.5) = 0.25
    rho = HermitianMatrix(np.diag([0.75, 0.25]).astype(complex))
    assert state_from_matrix(rho, basis2).purity == pytest.approx(0.25, abs=1e-14)


def test_matrix_from_json(basis2):
    obj = {"dim": 2, "re": [0.5, 0.1, 0.1, 0.5], "im": [0.0, -0.2, 0.2, 0.0]}
    mat = matrix_from_json(obj)
    state = state_from_matrix(mat, basis2)
    assert state.purity <= 1.0 + 1e-12
    text = json.dumps(obj)
    assert np.allclose(matrix_from_json(json.loads(text)).array, mat.array)
    with pytest.raises(ValueError, match="malformed"):
        matrix_from_json({"re": [1, 0, 0, 1]})


@pytest.mark.parametrize("obj", [
    {"dim": 10**6, "re": [1.0]},
    {"dim": 10**6, "re": [1.0], "im": [0.0]},
    {"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0]},
    {"dim": 2.5, "re": [1.0, 0.0, 0.0, 1.0]},
    {"dim": 2.0, "re": [1.0, 0.0, 0.0, 1.0]},
    {"dim": True, "re": [1.0]},
    {"dim": "2", "re": [1.0, 0.0, 0.0, 1.0]},
    {"dim": 0, "re": []},
    {"dim": -1, "re": [1.0]},
])
def test_matrix_from_json_checks_dim_before_allocating(obj):
    # An integer dim >= 1 that is not a bool, and re and im of exactly
    # dim² entries, checked before an array of dim² entries is made: at
    # dim 10**6 one takes 8 TB.
    with pytest.raises(ValueError, match="^malformed matrix object: "):
        matrix_from_json(obj)


# ---------------------------------------------------------------------------
# The check functions: one statement per invariant, for one object and for
# a stack


def test_nan_bloch_vector_is_rejected(basis2):
    rho = HermitianMatrix(np.diag([0.75, 0.25]).astype(complex))
    with pytest.raises(UnphysicalState, match=r"\|p\|\^2 = nan inconsistent"):
        QuantumState(2, rho, np.array([np.nan, 0.0, 0.0]))
    p = np.array([[0.0, 0.0, 0.5], [np.nan, 0.0, 0.0], [0.0, 0.0, np.nan]])
    rows = np.repeat(rho.array[None], 3, axis=0)
    assert failures(bloch._state_checks(rows, p, 2)).tolist() == [False, True, True]


_HALF_I = HermitianMatrix(np.eye(2) / 2)
_SIGMA3 = HermitianMatrix(np.diag([1.0, -1.0]))

# Operands of two dimensions: each constructor and converter, and the
# message of its dimension check.
_DIMENSION_MISMATCHES = {
    "state-matrix": (lambda b2, b3: QuantumState(3, _HALF_I, np.zeros(8)),
                     "state matrix dimension disagrees with dim"),
    "state-vector": (lambda b2, b3: QuantumState(2, _HALF_I, np.zeros(8)),
                     r"Bloch vector length must be dim\^2 - 1"),
    "observable-matrix": (lambda b2, b3: Observable(3, _SIGMA3, np.zeros(8), np.zeros(8)),
                          "observable matrix dimension disagrees with dim"),
    "observable-vectors": (lambda b2, b3: Observable(2, _SIGMA3, np.zeros(3), np.zeros(8)),
                           r"coefficient vectors must have length dim\^2 - 1"),
    "state_from_matrix": (lambda b2, b3: state_from_matrix(_HALF_I, b3),
                          "matrix and basis dimensions disagree"),
    "observable_from_matrix": (lambda b2, b3: observable_from_matrix(_SIGMA3, b3),
                               "matrix and basis dimensions disagree"),
    "state_to_matrix": (lambda b2, b3: state_to_matrix(np.zeros(8), b2),
                        "expected a Bloch vector of length 3"),
    "observable_from_bloch": (lambda b2, b3: observable_from_bloch(np.zeros(3), b3),
                              "expected a vector of length 8"),
}


@pytest.mark.parametrize("name", sorted(_DIMENSION_MISMATCHES))
def test_operands_of_another_dimension_are_rejected(basis2, basis3, name):
    build, message = _DIMENSION_MISMATCHES[name]
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        build(basis2, basis3)


def _check_inputs(dim, rows=120):
    # Density matrices stretched past the physical body, observables of
    # norms from 0.1 to 1e7, asymmetric drift absorbed or rejected, and
    # NaN and inf entries.
    basis = basis_for(dim)
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))
    rho = g @ g.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    eye = np.eye(dim) / dim
    rho = eye + rng.uniform(0.5, 3.0, size=(rows, 1, 1)) * (rho - eye)
    rho += 10.0 ** rng.choice([-20, -13, -11], size=(rows, 1, 1)) * g
    vec = rng.normal(size=(rows, basis.n_generators)) * 10.0 ** rng.uniform(-1, 7, size=(rows, 1))
    for k, bad in enumerate([np.nan, np.inf]):
        rho[k::17, 0, -1] = bad
        vec[k::19, -1] = bad
    return basis, rho, vec


def _fields(result):
    # A check function's results and the fields of its checks, in order.
    if isinstance(result, tuple):
        result, checks = result
        return [result] + _fields(checks)
    if isinstance(result, list):
        return [field for check in result for field in check]
    return [result]


def _bits(x):
    # The float64 bits of x (real and imaginary parts), every NaN alike.
    x = np.atleast_1d(x)
    f = np.stack([x.real, x.imag]) if np.iscomplexobj(x) else x.astype(np.float64)
    bits = f.view(np.uint64).copy()
    bits[np.isnan(f)] = 0x7FF8000000000000
    return bits


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # bad rows on purpose
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_each_row_checked_alone_equals_its_stack_row(dim):
    # Builtin abs of a numpy complex scalar, or math.hypot, differs from
    # np.abs and np.hypot in the last bit on a fraction of inputs: the
    # checks use numpy's on both shapes, so that a row alone is its row
    # of the stack bit for bit, values, masks and messages alike.
    basis, m, vec = _check_inputs(dim)
    rho, _ = hermitian(m)
    coeffs = basis.trace_rows(rho)
    p = coeffs.real.copy()
    p[1::5] = np.nan
    obs = basis.combine_rows(vec)
    matrix, _ = hermitian(obs)
    a_prime = basis.d_contract(vec)
    stacked = basis.trace_rows

    def dense(sq):
        return np.einsum("ab,jba->j", sq, basis.stacked())

    cases = [
        (hermitian, (m,)),
        (bloch._min_eigenvalue, (rho,)),
        (bloch._state_checks, (rho, coeffs.real, dim)),
        (bloch._state_checks, (rho, p, dim)),
        (bloch._real_components, (coeffs,)),
        (bloch._observable_checks, (matrix, vec)),
        (bloch._prime_checks, (obs, a_prime, dim, stacked, row_dot(vec, vec))),
    ]
    for fn, args in cases:
        stack = _fields(fn(*args))
        holds = [f for f in stack if isinstance(f, np.ndarray) and f.dtype == bool]
        assert fn is bloch._min_eigenvalue or not np.logical_and.reduce(holds).all()
        for i in range(len(m)):
            row_args = [a[i] if isinstance(a, np.ndarray) else a for a in args]
            alone = _fields(fn(*[dense if a is stacked else a for a in row_args]))
            assert len(alone) == len(stack)
            for s, r in zip(stack, alone):
                if isinstance(s, np.ndarray):
                    assert np.ndim(r) == s.ndim - 1
                    assert np.array_equal(_bits(s[i]), _bits(r)), (fn.__name__, i)
                else:
                    assert s == r


# Each check function, with a scalar constructor and a stack call that
# run it, on basis3 (b), two completely mixed density matrices (m) and
# two unit vectors (v).
_ONE_CHECK = [
    ("hermitian", lambda b, m, v: HermitianMatrix(m[0]),
     lambda b, m, v: bloch.state_from_matrix_batch(m, b)),
    ("_min_eigenvalue", lambda b, m, v: state_to_matrix(np.zeros(8), b),
     lambda b, m, v: bloch.state_to_matrix_batch(np.zeros((2, 8)), b)),
    ("_state_checks", lambda b, m, v: state_from_matrix(HermitianMatrix(m[0]), b),
     lambda b, m, v: bloch.state_from_matrix_batch(m, b)),
    ("_real_components", lambda b, m, v: state_from_matrix(HermitianMatrix(m[0]), b),
     lambda b, m, v: bloch.state_from_matrix_batch(m, b)),
    ("_observable_checks", lambda b, m, v: observable_from_bloch(v[0], b),
     lambda b, m, v: bloch.observable_from_bloch_batch(v, b)),
    ("_prime_checks", lambda b, m, v: observable_from_bloch(v[0], b),
     lambda b, m, v: bloch.observable_from_bloch_batch(v, b)),
]


@pytest.mark.parametrize("name,scalar,stack", _ONE_CHECK, ids=[case[0] for case in _ONE_CHECK])
def test_scalar_and_stack_call_one_check(monkeypatch, basis3, name, scalar, stack):
    m = np.repeat((np.eye(3) / 3.0)[None], 2, axis=0).astype(complex)
    v = np.eye(8)[:2]
    check = getattr(bloch, name)
    calls = []

    def spy(*args):
        calls.append(np.ndim(args[0]))
        return check(*args)

    monkeypatch.setattr(bloch, name, spy)
    if name == "hermitian":
        assert linalg.hermitian is check
        monkeypatch.setattr(linalg, name, spy)
    scalar(basis3, m, v)
    alone, calls[:] = calls[:], []
    stack(basis3, m, v)
    assert alone and calls and {d + 1 for d in alone} == set(calls)


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_observables_of_large_norm_are_accepted(dim, scale):
    # The |a|^2 and a' checks' residues grow as eps |a|^2, and so does
    # their tolerance, 1e-11 of max(1, |a|^2); the trace check's grows as
    # eps |a|, and so does its tolerance, 1e-12 of max(1, |a|): random
    # Hermitian matrices with |a|^2 of about scale^2 pass, alone and on
    # a stack.
    basis = basis_for(dim)
    gen = np.random.default_rng(1502)
    vectors = []
    for _ in range(50):
        g = scale * (gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
        obs = observable_from_matrix(HermitianMatrix((g + g.conj().T) / 2.0), basis)
        vectors.append(obs.a)
        assert obs.norm2 > 1.0
    assert not bloch.observable_from_bloch_batch(np.array(vectors), basis).bad.any()


# The a' check's failure path: a contracted vector off by 1e-6, and a
# matrix that is not traceless, on one object and on a stack.


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_prime_check_flags_a_corrupted_contraction(monkeypatch, dim):
    basis = basis_for(dim)
    vec = np.random.default_rng(dim).normal(size=(12, basis.n_generators))
    contract = type(basis).d_contract

    def off_by_1e6(self, a):
        # 1e-6 more on the rows whose first coefficient is positive.
        return contract(self, a) + 1e-6 * (a[..., :1] > 0)

    monkeypatch.setattr(type(basis), "d_contract", off_by_1e6)
    corrupted = vec[:, 0] > 0
    assert 0 < corrupted.sum() < len(vec)
    assert bloch.observable_from_bloch_batch(vec, basis).bad.tolist() == corrupted.tolist()
    for row, bad in zip(vec, corrupted):
        if bad:
            with pytest.raises(ValueError, match="contracted vector disagrees with the A\\^2"):
                observable_from_bloch(row, basis)
        else:
            observable_from_bloch(row, basis)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_prime_check_flags_a_matrix_with_a_trace(dim):
    # A + c I squares to A^2 + 2c A + c^2 I, whose traceless part is off
    # by 2c A from the one a' describes.
    basis = basis_for(dim)
    vec = np.random.default_rng(dim).normal(size=(12, basis.n_generators))
    shift = np.resize([0.0, 1e-3, 1e-15], 12)  # 2c A off by about 2e-3 and 2e-15
    arr = basis.combine_rows(vec) + shift[:, None, None] * np.eye(dim)
    a_prime = basis.d_contract(vec)
    flagged = failures(bloch._prime_checks(arr, a_prime, dim, basis.trace_rows, row_dot(vec, vec)))
    assert flagged.tolist() == (shift == 1e-3).tolist()
    for i in range(12):
        if flagged[i]:
            with pytest.raises(ValueError, match="contracted vector disagrees with the A\\^2"):
                bloch._observable(arr[i], vec[i], basis, 0.0)
        else:
            bloch._observable(arr[i], vec[i], basis, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite rows on purpose
def test_qubit_prime_closed_form_matches_the_squared_matrix(basis2):
    # The N = 2 closed form of the a' check against squaring A and
    # decomposing A^2 - Tr[A^2]/2 I through trace_rows, on Hermitian
    # matrices, traceless or not, of scales 1e-150 to 1e150, with NaN and
    # inf entries.  The check's value feeds its flag and message alone:
    # every row must get the same flag, and a finite value must agree to
    # a few ulp of |A|^2.
    rows = 12_000
    rng = np.random.default_rng(2015)
    g = rng.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2))
    arr = (g + g.conj().swapaxes(1, 2)) / 2.0
    arr[::2] -= np.trace(arr[::2], axis1=1, axis2=2)[:, None, None] / 2.0 * np.eye(2)
    scale = 10.0 ** rng.uniform(-150, 150, size=rows)
    arr *= scale[:, None, None]
    for k, bad in enumerate([np.nan, np.inf, -np.inf]):
        arr[k::37, 0, 1] = arr[k::37, 1, 0] = bad
        arr[k + 3 :: 41, k % 2, k % 2] = bad
    sq = arr @ arr
    sq -= (np.trace(sq, axis1=1, axis2=2).real / 2.0)[:, None, None] * np.eye(2)
    squared = 0.5 * basis2.trace_rows(sq).real
    norm2 = 0.5 * np.einsum("...ab,...ba", arr, arr).real  # |a|^2 of a traceless A
    # a' of the size of A^2, and a' as drawn at N = 2 (zero).
    for a_prime in (rng.normal(size=(rows, 3)) * scale[:, None] ** 2, np.zeros((rows, 3))):
        expected = np.abs(a_prime - squared).max(axis=-1)
        ((holds, _, err),) = bloch._prime_checks(arr, a_prime, 2, basis2.trace_rows, norm2)
        assert 0 < holds.sum() < rows
        finite = np.isfinite(expected)
        assert np.array_equal(finite, np.isfinite(err)) and not finite.all()
        # The ulp of |A|^2, and of the value, which the subtraction rounds.
        ulp = np.zeros(rows)
        ulp[finite] = np.abs(arr[finite]).max(axis=(1, 2)) ** 2 + expected[finite]
        ulp *= np.finfo(float).eps
        assert (np.abs(err[finite] - expected[finite]) <= 4 * ulp[finite]).all()
        # The flags: the same on every row.  The tolerance is 1e-11 of
        # max(1, |a|^2), so no value lies within a few ulp of it: the
        # rounding residue of a traceless matrix, of any scale, is far
        # below it.
        scale = np.maximum(1.0, norm2)
        assert not (np.abs(expected - 1e-11 * scale) <= 4 * ulp).any()
        assert holds.tolist() == (expected / scale <= 1e-11).tolist()
        for i in range(0, rows, 997):  # one matrix, as a scalar constructor checks it
            ((alone, _, value),) = bloch._prime_checks(arr[i], a_prime[i], 2, None, norm2[i])
            assert alone == holds[i] and np.array_equal(_bits(value), _bits(err[i]))


def test_completely_mixed_is_one_read_only_object(basis2, basis3):
    for basis in (basis2, basis3):
        state = completely_mixed(basis)
        assert completely_mixed(basis) is state
        assert not state.p.flags.writeable and not state.rho.array.flags.writeable
        fresh = state_to_matrix(np.zeros(basis.n_generators), basis)
        assert np.array_equal(_bits(fresh.rho.array), _bits(state.rho.array))
        assert np.array_equal(_bits(fresh.p), _bits(state.p))
    with pytest.raises(AttributeError):
        completely_mixed(basis2).p = np.ones(3)


def test_norms_are_computed_once(basis3, np_rng):
    vec = np_rng.normal(size=8)
    obs = observable_from_bloch(vec, basis3)
    state = state_to_matrix(0.1 * vec / np.linalg.norm(vec), basis3)
    for obj, name, value in [
        (obs, "norm2", float(obs.a @ obs.a)),
        (obs, "prime_norm2", float(obs.a_prime @ obs.a_prime)),
        (state, "purity", float(state.p @ state.p)),
    ]:
        assert name not in vars(obj)
        assert getattr(obj, name) == value and vars(obj)[name] == value
    batch, _ = bloch.state_to_matrix_batch(state.p[None], basis3)
    (wrapped,) = bloch.batch_states(batch)
    assert wrapped.purity == state.purity == batch.purity[0]
