import numpy as np
import pytest

from blochvar import DimensionMismatch, HermitianMatrix

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)


def test_hermitian_symmetrizes_small_drift():
    drift = 1e-13
    arr = SIGMA1 + np.array([[0, drift], [0, 0]])
    h = HermitianMatrix(arr)
    assert np.abs(h.array - h.array.conj().T).max() == 0.0


def test_hermitian_rejects_large_asymmetry():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(SIGMA1 + np.array([[0, 1e-9], [0, 0]]))


def test_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        HermitianMatrix(np.zeros((2, 3)))


def test_arrays_are_immutable():
    m = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0
