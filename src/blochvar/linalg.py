"""The validated Hermitian matrix that states, observables and generators wrap.

Everything downstream works with small (dim <= ~10) complex Hermitian
matrices, so construction favours strict validation over raw speed: it
rejects non-square and non-finite input, checks the asymmetry is
round-off sized, stores the symmetrized (M + M†)/2, and freezes the
stored array so instances are safe to share.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = ["HermitianMatrix", "HERMITICITY_ATOL"]

HERMITICITY_ATOL = 1e-12


class HermitianMatrix:
    """Immutable complex matrix equal to its conjugate transpose within round-off.

    Asymmetry up to ``HERMITICITY_ATOL`` per entry is absorbed by storing
    (M + M†)/2; anything larger is rejected as a genuine error rather
    than silently repaired.
    """

    __slots__ = ("_arr",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        asym = float(np.abs(arr - arr.conj().T).max())
        if asym > HERMITICITY_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds {HERMITICITY_ATOL:g}"
            )
        sym = (arr + arr.conj().T) / 2.0
        sym.setflags(write=False)
        self._arr = sym

    @property
    def dim(self) -> int:
        return self._arr.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only complex array."""
        return self._arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"
