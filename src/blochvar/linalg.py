"""The validated Hermitian matrix that states, observables and generators wrap.

Everything downstream works with small (dim <= 16, the command line's
``MAX_DIM``) complex Hermitian matrices, so construction favours strict
validation over raw speed: it rejects non-square and non-finite input,
checks the asymmetry is round-off sized, stores the symmetrized
(M + M†)/2, and freezes the stored array so instances are safe to share.

The batched engine works on stacks of such matrices, one per RNG
stream (a lane).  ``hermitian_batch`` is the lanes form of the
constructor; ``row_dot``, ``per_element``, ``py_max`` and ``py_min``
are the primitives that keep lanes bit-identical to the scalar path:
numpy's own ``log``, ``arccos``, ``hypot`` and complex ``abs`` (and
``x ** 2`` against libm's ``pow``) differ from Python's in the last bit
on a fraction of inputs, and an elementwise or ``einsum`` dot product
sums in another order than the BLAS dot of a 1-D ``u @ v``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "HermitianMatrix",
    "HERMITICITY_ATOL",
    "hermitian_batch",
    "row_dot",
    "per_element",
    "py_max",
    "py_min",
]

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


def hermitian_batch(entries) -> tuple[np.ndarray, np.ndarray]:
    """Lanes form of ``HermitianMatrix``: ``entries`` is an (n, N, N) stack.

    Returns ``(sym, bad)``: the symmetrized stack and a mask of the rows
    the constructor would reject (non-finite, or asymmetry above
    ``HERMITICITY_ATOL``).
    """
    arr = np.asarray(entries, dtype=np.complex128)
    adj = arr.conj().swapaxes(1, 2)
    bad = ~np.isfinite(arr).all(axis=(1, 2))
    sym = arr - adj
    bad |= np.abs(sym).max(axis=(1, 2)) > HERMITICITY_ATOL
    np.add(arr, adj, out=sym)
    sym /= 2.0
    return sym, bad


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[i] @ v[i]`` for every row: a stacked matmul runs the same BLAS
    dot per row as a 1-D ``u @ v`` (real or complex), so it is
    bit-identical to it, which ``einsum("ij,ij->i")`` is not."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


_PER_ELEMENT_BLOCK = 1024  # elements converted to Python objects at a time


def per_element(fn, *arrays) -> np.ndarray:
    """``fn`` on each element as Python scalars, for the operations whose
    numpy form differs from the scalar path's (``math.log``,
    ``math.acos``, ``math.hypot``, ``abs`` of a complex, ``x ** 2``).

    It works through blocks of elements, so that no more than a block of
    Python numbers is alive at a time."""
    shape = np.shape(arrays[0])
    flat = [np.ravel(a) for a in arrays]
    out = np.empty(flat[0].size)
    for start in range(0, out.size, _PER_ELEMENT_BLOCK):
        block = (f[start : start + _PER_ELEMENT_BLOCK].tolist() for f in flat)
        out[start : start + _PER_ELEMENT_BLOCK] = list(map(fn, *block))
    return out.reshape(shape)


def py_max(x, y) -> np.ndarray:
    """Elementwise ``max(x, y)`` as Python evaluates it: ``y`` where
    ``y > x``, else ``x`` (argument order decides NaN and -0.0)."""
    return np.where(y > x, y, x)


def py_min(x, y) -> np.ndarray:
    """Elementwise ``min(x, y)`` as Python evaluates it: ``y`` where
    ``y < x``, else ``x``."""
    return np.where(y < x, y, x)
