"""Pinned tolerances against a 50-digit oracle.

Each float64 route is evaluated on stored float64 inputs, and the same
inputs are evaluated again with mpmath at 50 digits, far below float64's
resolution.  Each pinned tolerance must exceed the worst error measured
here by at least 10³, so that a route drifting by orders of magnitude
fails here long before its tolerance lets a wrong answer through.  The
README's tolerance table quotes these worst errors.
"""

import mpmath
import numpy as np
import pytest

from blochvar import HermitianMatrix, Xoshiro256pp, basis_for, bloch, draw_mixed, draw_observable
from blochvar import observable_from_matrix, variance_bloch, variance_matrix

# The margin each pinned tolerance keeps over its measured worst error.
_HEADROOM = 1e3


def _exact(matrix):
    # complex128 -> mpc is exact.
    return [[mpmath.mpc(complex(x)) for x in row] for row in matrix]


def _variance_50(a, rho):
    """Re Tr[A²ρ] - (Re Tr[Aρ])² at 50 digits, on the stored matrices."""
    with mpmath.workdps(50):
        am = _exact(a.matrix.array)
        rm = _exact(rho.rho.array)
        n = len(am)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        a2 = {(i, j): mpmath.fsum(am[i][k] * am[k][j] for k in range(n)) for i, j in pairs}
        second = mpmath.fsum(a2[i, j] * rm[j][i] for i, j in pairs).real
        mean = mpmath.fsum(am[i][j] * rm[j][i] for i, j in pairs).real
        return second - mean * mean


@pytest.mark.parametrize("n,draws", [(2, 1000), (3, 300), (6, 40)])
def test_variance_routes_against_50_digits(n, draws):
    # Criterion 1's draws: a mixed state, then an observable, on stream i
    # of seed 2024 + N.  The routes agree with each other to 1e-9.
    basis = basis_for(n)
    worst_matrix = worst_bloch = 0.0
    for i in range(draws):
        rng = Xoshiro256pp(2024 + n, stream=i)
        state = draw_mixed(rng, basis)
        obs = draw_observable(rng, basis)
        exact = _variance_50(obs, state)
        worst_matrix = max(worst_matrix, float(abs(variance_matrix(obs, state) - exact)))
        worst_bloch = max(worst_bloch, float(abs(variance_bloch(obs, state, basis) - exact)))
    print(f"\nN = {n}: worst |error| matrix {worst_matrix:.2e}, Bloch {worst_bloch:.2e}")
    assert worst_matrix * _HEADROOM <= 1e-9
    assert worst_bloch * _HEADROOM <= 1e-9


def _min_eigenvalue_50(matrix):
    """The smallest eigenvalue of a stored Hermitian matrix at 50 digits."""
    with mpmath.workdps(50):
        values = mpmath.mp.eighe(mpmath.matrix(_exact(matrix)), eigvals_only=True)
        return min(values[k] for k in range(len(matrix)))


@pytest.mark.parametrize("n,draws", [(2, 200), (3, 20), (6, 20)])
def test_psd_floor_against_50_digits(n, draws):
    # The eigenvalue floor QuantumState checks (-1e-10), by its own route
    # (bloch._min_eigenvalue: the closed form with np.hypot at N = 2,
    # eigvalsh at N > 2), on mixed states of seed
    # 7000 + N, and on each of them with its Bloch vector stretched so
    # that the matrix rebuilt from it, as state_to_matrix rebuilds one,
    # has its smallest eigenvalue within 1e-9 of the floor.
    basis = basis_for(n)
    floor = bloch.PSD_EIGENVALUE_FLOOR
    worst = 0.0
    for i in range(draws):
        state = draw_mixed(Xoshiro256pp(7000 + n, stream=i), basis)
        lo = bloch._min_eigenvalue(state.rho.array)
        target = floor + (2.0 * i / (draws - 1) - 1.0) * 0.9e-9
        p = (1.0 / n - target) / (1.0 / n - lo) * state.p
        arr = np.eye(n, dtype=np.complex128) / n + 0.5 * np.einsum("j,jab->ab", p, basis.stacked())
        for matrix in (state.rho.array, HermitianMatrix(arr).array):
            exact = _min_eigenvalue_50(matrix)
            worst = max(worst, float(abs(bloch._min_eigenvalue(matrix) - exact)))
        assert abs(exact - floor) <= 1e-9
    print(f"\nN = {n}: worst |error| of the smallest eigenvalue {worst:.2e}")
    assert worst * _HEADROOM <= abs(floor)


def _squared_coefficients_50(matrix, basis):
    """Tr[A² g_j] / 2 of a stored matrix at 50 digits: the coefficient
    vector of the traceless part of A², which a' must equal."""
    with mpmath.workdps(50):
        am = _exact(matrix)
        n = len(am)
        a2 = [[mpmath.fsum(am[i][k] * am[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return [
            float(mpmath.fsum(a2[i][j] * g[j][i] for i in range(n) for j in range(n)).real / 2)
            for g in (_exact(g) for g in basis.stacked())
        ]


@pytest.mark.parametrize("n,draws", [(2, 1000), (3, 300), (6, 40)])
def test_prime_check_against_50_digits(n, draws):
    # The a' check (1e-11 of max(1, |a|^2)) by its own route
    # (bloch._prime_checks: the closed form in Tr A at N = 2, A squared
    # and decomposed through trace_rows above), on criterion 1's
    # observables, on as many Hermitian matrices made traceless by
    # observable_from_matrix, whose trace is a rounding residue rather
    # than 0, and on those matrices scaled by 1e2 to 1e6 and made
    # traceless in the same way.  Given the 50-digit coefficients rounded
    # to float64 as a', its value is the route's error to within their
    # rounding.
    basis = basis_for(n)
    matrices = []
    gen = np.random.default_rng(n)
    for i in range(draws):
        rng = Xoshiro256pp(2024 + n, stream=i)
        draw_mixed(rng, basis)
        matrices.append(draw_observable(rng, basis).matrix.array)
        g = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        matrices.append(observable_from_matrix(HermitianMatrix((g + g.conj().T) / 2.0), basis).matrix.array)
        h = HermitianMatrix(10.0 ** (2 + i % 5) * (g + g.conj().T) / 2.0).array
        matrices.append(h - np.trace(h).real / n * np.eye(n))
    matrices = np.array(matrices)
    exact = np.array([_squared_coefficients_50(m, basis) for m in matrices])
    norm2 = 0.5 * np.einsum("...ab,...ba", matrices, matrices).real
    ((holds, _, err),) = bloch._prime_checks(matrices, exact, n, basis.trace_rows, norm2)
    scale = np.maximum(1.0, norm2)
    worst = float((err / scale).max())
    print(f"\nN = {n}: worst |error| / max(1, |a|^2) of the a' check's route {worst:.2e},"
          f" |a|^2 up to {scale.max():.1e}")
    assert holds.all() and worst * _HEADROOM <= 1e-11
