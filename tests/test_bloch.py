import json

import numpy as np
import pytest

from blochvar import (
    HermitianMatrix,
    UnphysicalState,
    completely_mixed,
    matrix_from_json,
    observable_from_bloch,
    observable_from_matrix,
    state_from_matrix,
    state_to_matrix,
)
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
