"""The validated Hermitian matrix that states, observables and generators wrap.

Everything downstream works with small (dim <= 16, the command line's
``MAX_DIM``) complex Hermitian matrices, so construction favours strict
validation over raw speed: it rejects non-square and non-finite input,
checks the asymmetry is round-off sized, stores the symmetrized
(M + M†)/2, and freezes the stored array so instances are safe to share.

The batched engine works on stacks of such matrices, one per RNG
stream (a lane).  Each constructor invariant, here and in ``bloch``, is
one function over a (..., N, N) array that returns its results and its
checks, ``(holds, template, *values)`` tuples: on one object the
constructor raises the first check that does not hold (``raise_first``),
and on a stack the rows where any does not hold are its ``bad``
(``failures``).  Each check is written so that a NaN fails it.
The same numpy statements run on both shapes, so a row checked alone
equals its row of the stack bit for bit.  ``hermitian`` is this
module's one.

A check is ``(holds, template, *values)``, or ``(holds, error,
template, *values)`` when it names the exception type it raises;
``relations`` and ``variance`` name one in every check, since one of
their checkers raises several.

``row_dot``, ``components``, ``per_element``, ``where``, ``py_max`` and
``py_min`` are the primitives that keep lanes bit-identical to the
scalar path where a value feeds a margin: numpy's own ``log``,
``arccos``, ``hypot`` and complex ``abs`` (and ``x ** 2`` against libm's
``pow``) differ from Python's in the last bit on a fraction of inputs,
and an elementwise or ``einsum`` dot product sums in another order than
the BLAS dot of a 1-D ``u @ v``.  Each takes one element (one vector for
``row_dot`` and ``components``) as well as a stack, as ``array_of``
takes one ``HermitianMatrix`` or a stack of matrices and gives its
array.  On one element each returns Python numbers or its operands,
never a 0-d array, on which every numpy call costs about a
microsecond: a checker written once over one object or a stack runs on
one object at about the cost of Python floats.
``np.sqrt`` and ``np.cos`` run on both shapes: ``sqrt`` is correctly
rounded in both libraries, and ``np.cos`` equalled ``math.cos`` on
1.1e6 inputs in [0, π] and ±4 (numpy 2.4.6, glibc; tests/test_engine.py
pins a sample), so every shared function, the few-microsecond checkers'
included, calls them on one element too, at about a microsecond each.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "HermitianMatrix",
    "HERMITICITY_ATOL",
    "hermitian",
    "raise_first",
    "failures",
    "array_of",
    "row_dot",
    "components",
    "per_element",
    "where",
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
        # Read, never stored or written: the stored sum is a fresh array.
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        sym, checks = hermitian(arr)
        raise_first(checks)
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


def hermitian(entries) -> tuple[np.ndarray, list]:
    """(M + M†)/2 of each of the (..., N, N) matrices, as complex, and the
    checks ``HermitianMatrix`` raises: non-finite entries, and an
    asymmetry above ``HERMITICITY_ATOL``.  The sum overwrites the
    difference, so that a stack makes one complex array of its size."""
    arr = np.asarray(entries, dtype=np.complex128)
    adj = arr.conj().swapaxes(-1, -2)
    sym = arr - adj
    asym = np.abs(sym).max(axis=(-2, -1))
    np.add(arr, adj, out=sym)
    sym /= 2.0
    return sym, [
        (np.isfinite(arr).all(axis=(-2, -1)), "matrix entries must be finite"),
        (asym <= HERMITICITY_ATOL, "matrix is not Hermitian: asymmetry {:.3e} exceeds {:g}",
         asym, HERMITICITY_ATOL),
    ]


def raise_first(checks: list, error: type = ValueError) -> None:
    """Raise the message of the first check that does not hold, on the
    results of a check function for one object: as the type the check
    names, or else as ``error``."""
    for check in checks:
        if not check[0]:
            if isinstance(check[1], type):
                error, check = check[1], check[1:]
            raise error(check[1].format(*check[2:]))


def failures(checks: list) -> np.ndarray:
    """The rows of a stack on which any of ``checks`` does not hold; a
    check of one value (an argument all rows share) holds for all or
    none."""
    return ~functools.reduce(operator.and_, (check[0] for check in checks))


def array_of(m) -> np.ndarray:
    """The array of a ``HermitianMatrix``; a stack of (..., N, N)
    matrices, as it is."""
    return m.array if type(m) is HermitianMatrix else m


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[i] @ v[i]`` for every row of (..., n) vectors: a stacked
    matmul runs the same BLAS dot per row as a 1-D ``u @ v`` (real or
    complex), so it is bit-identical to it, which
    ``einsum("ij,ij->i")`` is not.  One vector is broadcast against the
    rows of the other.  Of two vectors it is their dot, as a Python
    number."""
    if u.ndim == v.ndim == 1:
        dot = u @ v
        return float(dot) if isinstance(dot, float) else complex(dot)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def components(x: np.ndarray) -> list:
    """The entries along the last axis of (..., n) vectors, a stack each
    (views of the columns of rows); of one vector, its Python floats."""
    if x.ndim == 1:
        return x.tolist()
    return [x[..., i] for i in range(x.shape[-1])]


# Elements per per_element block.  ``fn`` sees one element at a time, so
# the block size cannot change a bit.  Each block's results go from
# ``map`` into ``np.fromiter``, with no list in between: math.log of
# 24,576 elements took 2,781 µs, where a list took 2,975 µs.
_PER_ELEMENT_BLOCK = 1024


def per_element(fn, *arrays) -> np.ndarray:
    """``fn`` on each element as Python scalars, for the operations whose
    numpy form differs from the scalar path's (``math.log``,
    ``math.acos``, ``math.hypot``, ``abs`` of a complex, ``x ** 2``).

    It works through blocks of elements, so that no more than a block of
    Python numbers is alive at a time.  On one element it returns
    ``fn``'s Python scalar."""
    if not isinstance(arrays[0], np.ndarray):  # one element, a numpy or Python scalar
        return fn(*[complex(a) if isinstance(a, complex) else float(a) for a in arrays])
    shape = np.shape(arrays[0])
    flat = [np.ravel(a) for a in arrays]
    out = np.empty(flat[0].size)
    for start in range(0, out.size, _PER_ELEMENT_BLOCK):
        block = (f[start : start + _PER_ELEMENT_BLOCK].tolist() for f in flat)
        out[start : start + _PER_ELEMENT_BLOCK] = np.fromiter(map(fn, *block), float)
    return out.reshape(shape)


def where(cond, x, y):
    """``np.where(cond, x, y)``; on one element, ``x`` or ``y`` itself."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def py_max(x, y):
    """Elementwise ``max(x, y)`` as Python evaluates it: ``y`` where
    ``y > x``, else ``x`` (argument order decides NaN and -0.0).  It is
    ``where`` written out, one call fewer on one element."""
    above = y > x
    if isinstance(above, np.ndarray):
        return np.where(above, y, x)
    return y if above else x


def py_min(x, y):
    """Elementwise ``min(x, y)`` as Python evaluates it: ``y`` where
    ``y < x``, else ``x``."""
    below = y < x
    if isinstance(below, np.ndarray):
        return np.where(below, y, x)
    return y if below else x
