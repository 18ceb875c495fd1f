"""Bloch-vector representations of states and observables.

A density matrix decomposes as rho = I/N + (1/2) Σ_j p_j g_j with
p_j = Tr[rho g_j]; a traceless Hermitian observable as A = Σ_j a_j g_j
with a_j = Tr[A g_j] / 2.  The squared norm |p|² = 2 (Tr[rho²] - 1/N)
measures pureness: 0 for the completely mixed state, 2(1 - 1/N) for pure
states.  Observables additionally carry the contracted vector
a'_l = Σ_jk a_j a_k d_jkl, the coefficient vector of the traceless part
of A², which enters every variance formula beyond the qubit case.

Positivity is verified, never assumed, and once per state: the
``QuantumState`` constructor checks the smallest eigenvalue, of a state
rebuilt from a Bloch vector too, because for N > 2 the physical Bloch
body is a proper subset of the norm ball and silently clipping would
corrupt boundary searches downstream.

``StateBatch`` and ``ObservableBatch`` are the struct-of-arrays forms
the batched engine uses at every N: row i is the state or observable of
RNG stream i.  Each constructor invariant is one check function over
(..., N, N) matrices and (..., N²-1) vectors, as ``linalg.hermitian``
is: ``_state_checks`` (``QuantumState``'s, with the smallest eigenvalue
from ``_min_eigenvalue``), ``_real_components``, ``_observable_checks``
and ``_prime_checks``.  The scalar constructors raise the first check
that does not hold; ``state_from_matrix_batch``, ``state_to_matrix_batch``
and ``observable_from_bloch_batch`` mark the rows that fail in ``bad``
instead, and the caller replays the first bad row on the scalar path,
which raises the scalar exception.  Rows that pass are bit-identical to
the scalar objects, and ``batch_states`` wraps them as such without
running the checks again.

Two checks take a closed form at N = 2, the qubit hot path: the
smallest eigenvalue (``eigvalsh`` otherwise), and the a' check, whose
reference is the Pauli coefficients of A² - Tr[A²]/2 I, with t = Tr A
(Re A01 t, -Im A01 t, (A00 - A11) t / 2), where above N = 2 it squares
A and decomposes A² (``trace_rows`` on a stack).  The smallest
eigenvalue and |Tr A| are numpy's ``hypot`` and ``abs``, not libm's,
which can differ in the last bit.  These values feed only the checks'
flags and messages, never a margin, so a closed form need only agree
with the general route to round-off (tests/test_bloch.py pins the a'
one against it, tests/test_oracle.py both against 50 digits).  The |a|²
and a' checks compare residues that grow as eps·|a|² with 1e-11 of
max(1, |a|²), and the trace check compares |Tr A|, which grows as
eps·|a|, with 1e-12 of max(1, |a|), so that an observable of large norm is not
rejected for its rounding; on the draws, of unit norm, they are 1e-11
and 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, UnphysicalState
from .linalg import HermitianMatrix, failures, hermitian, py_max, raise_first, row_dot
from .sun_basis import GeneratorBasis

__all__ = [
    "QuantumState",
    "Observable",
    "StateBatch",
    "ObservableBatch",
    "state_from_matrix_batch",
    "state_to_matrix_batch",
    "batch_states",
    "repeat_state",
    "observable_from_bloch_batch",
    "state_from_matrix",
    "state_to_matrix",
    "observable_from_matrix",
    "observable_from_bloch",
    "completely_mixed",
    "matrix_from_json",
    "PSD_EIGENVALUE_FLOOR",
]

PSD_EIGENVALUE_FLOOR = -1e-10
_TRACE_ATOL = 1e-12
_CONSISTENCY_ATOL = 1e-11


def _frozen(vec: np.ndarray) -> np.ndarray:
    out = np.array(vec, dtype=np.float64)
    out.setflags(write=False)
    return out


@cache
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _min_eigenvalue(arr: np.ndarray) -> np.ndarray:
    # The smallest eigenvalue of (..., N, N) Hermitian matrices: a closed
    # form at N = 2, the hot path of every sampled state, and otherwise
    # eigvalsh on the finite matrices only, so that one bad row cannot
    # fail a stack; the others read NaN, and the Hermitian check, which
    # comes first, marks them too.
    if arr.shape[-1] == 2:
        d0 = arr[..., 0, 0].real
        d1 = arr[..., 1, 1].real
        return 0.5 * (d0 + d1) - np.hypot(0.5 * (d0 - d1), np.abs(arr[..., 0, 1]))
    finite = np.isfinite(arr).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(arr)[..., 0]
    lo = np.full(finite.shape, np.nan)
    lo[finite] = np.linalg.eigvalsh(arr[finite])[:, 0]
    return lo


def _state_checks(rho: np.ndarray, p: np.ndarray, dim: int) -> list:
    # QuantumState's invariants, on symmetrized density matrices and
    # their Bloch vectors.
    tr = rho.trace(axis1=-2, axis2=-1).real
    lo = _min_eigenvalue(rho)
    p2 = row_dot(p, p)
    ref = 2.0 * (np.einsum("...ab,...ba", rho, rho).real - 1.0 / dim)
    return [
        (np.abs(tr - 1.0) <= _TRACE_ATOL, "trace {} is not 1 within {:g}", tr, _TRACE_ATOL),
        (lo >= PSD_EIGENVALUE_FLOOR, "unphysical state: eigenvalue {:.3e} below {:g}",
         lo, PSD_EIGENVALUE_FLOOR),
        (np.abs(p2 - ref) <= _CONSISTENCY_ATOL, "|p|^2 = {} inconsistent with matrix purity {}",
         p2, ref),
        (p2 <= 2.0 * (1.0 - 1.0 / dim) + 1e-10, "|p|^2 = {} exceeds the pure-state norm", p2),
    ]


def _real_components(coeffs: np.ndarray) -> list:
    # The complex Bloch components Tr[rho g_j] of a Hermitian matrix.
    return [(np.abs(coeffs.imag).max(axis=-1, initial=0.0) <= 1e-12,
             "Bloch components of a Hermitian matrix must be real")]


def _observable_checks(matrix: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list]:
    # Observable's invariants, and |a|^2.
    tr = np.abs(matrix.trace(axis1=-2, axis2=-1))
    norm2 = row_dot(a, a)
    ref = 0.5 * np.einsum("...ab,...ba", matrix, matrix).real
    return norm2, [
        (tr / py_max(1.0, np.sqrt(norm2)) <= _TRACE_ATOL,
         "canonical observable must be traceless, |Tr| = {:.3e}", tr),
        (np.abs(norm2 - ref) / py_max(1.0, norm2) <= _CONSISTENCY_ATOL,
         "|a|^2 = {} inconsistent with Tr[A^2]/2 = {}", norm2, ref),
    ]


def _prime_checks(arr: np.ndarray, a_prime: np.ndarray, dim: int, traces, norm2) -> list:
    # Independent route: a' is the coefficient vector of the traceless
    # part of A^2.  At N = 2, with t = Tr A, that is (Re A01 t, -Im A01 t,
    # (A00 - A11) t / 2) for Hermitian A.  Otherwise A is squared, and
    # traces(m) gives the Tr[m g_j]: the dense einsum for one matrix,
    # which is cheaper there, and trace_rows for a stack.  norm2 is |a|^2,
    # the tolerance's scale.
    if dim == 2:
        t = arr[..., 0, 0] + arr[..., 1, 1]
        off = arr[..., 0, 1] * t
        ref = np.empty(a_prime.shape)  # filled in place: np.stack costs more on one matrix
        ref[..., 0], ref[..., 1] = off.real, -off.imag
        ref[..., 2] = (0.5 * (arr[..., 0, 0] - arr[..., 1, 1]) * t).real
    else:
        sq = arr @ arr
        sq -= (sq.trace(axis1=-2, axis2=-1).real / dim)[..., None, None] * _eye(dim)
        ref = 0.5 * traces(sq).real
    err = np.abs(a_prime - ref).max(axis=-1, initial=0.0)
    return [(err / py_max(1.0, norm2) <= _CONSISTENCY_ATOL,
             "contracted vector disagrees with the A^2 decomposition by {:.3e}", err)]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix together with its Bloch vector.

    Invariants are enforced at construction: unit trace, positive
    semidefiniteness down to ``PSD_EIGENVALUE_FLOOR``, consistency of the
    stored vector with 2(Tr[rho²] - 1/N), and the purity range
    0 <= |p|² <= 2(1 - 1/N).
    """

    dim: int
    rho: HermitianMatrix
    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rho.dim != self.dim:
            raise DimensionMismatch("state matrix dimension disagrees with dim")
        if self.p.shape != (self.dim * self.dim - 1,):
            raise DimensionMismatch("Bloch vector length must be dim^2 - 1")
        raise_first(_state_checks(self.rho.array, self.p, self.dim), UnphysicalState)
        object.__setattr__(self, "p", _frozen(self.p))

    @cached_property
    def purity(self) -> float:
        """Squared Bloch-vector norm |p|²."""
        return float(self.p @ self.p)


@dataclass(frozen=True, eq=False)
class Observable:
    """Traceless Hermitian operator with its Bloch vector and contracted
    vector a'.

    ``matrix`` is the canonical traceless form; the trace removed at
    ingestion is retained in ``original_trace`` for reporting only, since
    variances are invariant under A -> A - alpha I.
    """

    dim: int
    matrix: HermitianMatrix
    a: np.ndarray = field(repr=False)
    a_prime: np.ndarray = field(repr=False)
    original_trace: float = 0.0

    def __post_init__(self):
        if self.matrix.dim != self.dim:
            raise DimensionMismatch("observable matrix dimension disagrees with dim")
        n = self.dim * self.dim - 1
        if self.a.shape != (n,) or self.a_prime.shape != (n,):
            raise DimensionMismatch("coefficient vectors must have length dim^2 - 1")
        raise_first(_observable_checks(self.matrix.array, self.a)[1])
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "a_prime", _frozen(self.a_prime))

    @cached_property
    def norm2(self) -> float:
        """|a|² = Tr[A²]/2."""
        return float(self.a @ self.a)

    @cached_property
    def prime_norm2(self) -> float:
        """|a'|² = (Tr[A⁴] - Tr[A²]²/N)/2."""
        return float(self.a_prime @ self.a_prime)


def state_from_matrix(rho: HermitianMatrix, basis: GeneratorBasis) -> QuantumState:
    """Decompose a density matrix into a validated ``QuantumState``."""
    if rho.dim != basis.dim:
        raise DimensionMismatch("matrix and basis dimensions disagree")
    coeffs = np.einsum("ab,jba->j", rho.array, basis.stacked())
    raise_first(_real_components(coeffs), UnphysicalState)
    return QuantumState(basis.dim, rho, coeffs.real)


def state_to_matrix(p, basis: GeneratorBasis) -> QuantumState:
    """Rebuild a state from Bloch components, verifying positivity.

    Raises ``UnphysicalState`` when the reconstruction is not positive
    semidefinite: for N > 2 the physical body is smaller than the norm
    ball, so a norm check alone would not do.  ``QuantumState`` runs
    that check, on the symmetrized reconstruction, which for a
    ``build_basis`` basis is the reconstruction bit for bit (up to the
    sign of zero imaginary parts on the diagonal).
    """
    p = np.asarray(p, dtype=np.float64)
    n = basis.n_generators
    if p.shape != (n,):
        raise DimensionMismatch(f"expected a Bloch vector of length {n}")
    arr = _eye(basis.dim) / basis.dim + 0.5 * np.einsum("j,jab->ab", p, basis.stacked())
    return QuantumState(basis.dim, HermitianMatrix(arr), p)


def observable_from_matrix(a: HermitianMatrix, basis: GeneratorBasis) -> Observable:
    """Canonicalize a Hermitian operator and decompose it.

    The trace part (Tr[A]/N) I is subtracted first; any Hermitian input
    is accepted.  The contracted vector is computed from the d tensor and
    cross-checked against the decomposition of A², so a corrupted basis
    cannot pass silently.
    """
    if a.dim != basis.dim:
        raise DimensionMismatch("matrix and basis dimensions disagree")
    tr = np.trace(a.array).real
    arr = a.array - (tr / basis.dim) * _eye(basis.dim)
    vec = (0.5 * np.einsum("ab,jba->j", arr, basis.stacked())).real
    return _observable(arr, vec, basis, float(tr))


def observable_from_bloch(a_vec, basis: GeneratorBasis) -> Observable:
    """Build the observable Σ_j a_j g_j from real coefficients."""
    vec = np.asarray(a_vec, dtype=np.float64)
    if vec.shape != (basis.n_generators,):
        raise DimensionMismatch(f"expected a vector of length {basis.n_generators}")
    return _observable(np.einsum("j,jab->ab", vec, basis.stacked()), vec, basis, 0.0)


def _observable(arr: np.ndarray, vec: np.ndarray, basis: GeneratorBasis, tr: float) -> Observable:
    a_prime = basis.d_contract(vec)
    raise_first(_prime_checks(
        arr, a_prime, basis.dim, lambda m: np.einsum("ab,jba->j", m, basis.stacked()), row_dot(vec, vec)
    ))
    return Observable(basis.dim, HermitianMatrix(arr), vec, a_prime, tr)


class StateBatch(NamedTuple):
    """States, one per row: ``rho`` (n, N, N), ``p`` (n, N²-1) and
    ``purity`` (n,) as ``QuantumState`` holds them; ``bad`` (n,) marks
    rows that failed a check (their other fields are unspecified)."""

    rho: np.ndarray
    p: np.ndarray
    purity: np.ndarray
    bad: np.ndarray


class ObservableBatch(NamedTuple):
    """Observables, one per row: ``matrix`` (n, N, N), ``a`` and
    ``a_prime`` (n, N²-1) and ``norm2`` (n,) as ``Observable`` holds
    them; ``bad`` as in ``StateBatch``."""

    matrix: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    norm2: np.ndarray
    bad: np.ndarray


def state_from_matrix_batch(rho: np.ndarray, basis: GeneratorBasis) -> StateBatch:
    """Lanes form of ``state_from_matrix(HermitianMatrix(rho[i]), basis)``."""
    rho, checks = hermitian(rho)
    coeffs = basis.trace_rows(rho)
    # QuantumState sees the strided view coeffs.real and stores a
    # contiguous copy, and the BLAS dot of each can round differently, so
    # both are kept.
    bad = failures(checks + _real_components(coeffs) + _state_checks(rho, coeffs.real, basis.dim))
    p = np.ascontiguousarray(coeffs.real)
    return StateBatch(rho, p, row_dot(p, p), bad)


def state_to_matrix_batch(p: np.ndarray, basis: GeneratorBasis) -> tuple[StateBatch, np.ndarray]:
    """Lanes form of ``state_to_matrix(p[i], basis)``.

    Returns ``(states, unphysical)``: ``states.bad`` marks the rows on
    which the scalar call raises, and ``unphysical`` those of them on
    which what it raises is ``UnphysicalState``.  As the scalar call
    does, it solves each row once, symmetrized, in ``QuantumState``'s
    positivity check.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    # The scalar checks in order: HermitianMatrix (ValueError), then
    # QuantumState, whose eigenvalue floor is the one solve of the stack.
    rho, checks = hermitian(_eye(basis.dim) / basis.dim + 0.5 * basis.combine_rows(p))
    not_hermitian = failures(checks)
    post_init = failures(_state_checks(rho, p, basis.dim))
    return StateBatch(rho, p, row_dot(p, p), not_hermitian | post_init), ~not_hermitian & post_init


def batch_states(states: StateBatch) -> Iterator[QuantumState]:
    """The rows of ``states``, none of them bad, as ``QuantumState``s.

    Each row has passed the array form of every check of the scalar
    constructors and equals their object bit for bit, so the checks are
    not run again: the objects' fields are set directly.  The stacks are
    made read-only, and each state holds read-only views of its row."""
    states.rho.setflags(write=False)
    states.p.setflags(write=False)
    for rho, p in zip(states.rho, states.p):
        matrix = object.__new__(HermitianMatrix)
        matrix._arr = rho
        state = object.__new__(QuantumState)
        state.__dict__.update(dim=len(rho), rho=matrix, p=p)
        yield state


def repeat_state(state: QuantumState, count: int) -> StateBatch:
    """``count`` rows of one validated state."""
    rho = np.repeat(state.rho.array[None], count, axis=0)
    p = np.repeat(state.p[None], count, axis=0)
    return StateBatch(rho, p, np.full(count, state.purity), np.zeros(count, dtype=bool))


def observable_from_bloch_batch(vec: np.ndarray, basis: GeneratorBasis) -> ObservableBatch:
    """Lanes form of ``observable_from_bloch(vec[i], basis)``."""
    vec = np.asarray(vec, dtype=np.float64)
    arr = basis.combine_rows(vec)
    a_prime = basis.d_contract(vec)
    matrix, hermitian_checks = hermitian(arr)
    norm2, observable_checks = _observable_checks(matrix, vec)
    checks = _prime_checks(arr, a_prime, basis.dim, basis.trace_rows, norm2)
    bad = failures(checks + hermitian_checks + observable_checks)
    return ObservableBatch(matrix, vec, a_prime, norm2, bad)


@cache
def completely_mixed(basis: GeneratorBasis) -> QuantumState:
    """The maximally mixed state I/N, one object per basis: it is
    immutable, so it is built, and checked, once, when it is first
    asked for."""
    return state_to_matrix(np.zeros(basis.n_generators), basis)


def matrix_from_json(obj: dict) -> HermitianMatrix:
    """Build a Hermitian matrix from the JSON wire format.

    Expected keys: ``dim`` (an int of at least 1, not a bool) plus
    row-major ``re`` and ``im`` arrays of length dim².  ``im`` may be
    omitted for real matrices.  The lengths are checked before anything
    of size dim² is allocated.
    """
    try:
        dim = obj["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
        re = np.asarray(obj["re"], dtype=np.float64).reshape(dim, dim)
        im = obj.get("im")
        im = np.zeros_like(re) if im is None else np.asarray(im, dtype=np.float64).reshape(dim, dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return HermitianMatrix(re + 1.0j * im)
