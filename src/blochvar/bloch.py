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
RNG stream i.  ``state_from_matrix_batch``, ``state_to_matrix_batch``
and ``observable_from_bloch_batch`` run every check of the scalar
constructors in array form, at the same tolerance, and mark the rows
that fail in ``bad`` instead of raising; the caller replays the first
bad row on the scalar path, which raises the scalar exception.  Rows
that pass are bit-identical to the scalar objects, and ``batch_states``
wraps them as such without running the checks again.  The positivity
check takes the closed form at N = 2 and a stacked ``eigvalsh``
otherwise, as the scalar one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, UnphysicalState
from .linalg import HermitianMatrix, hermitian_batch, per_element, row_dot
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
    "repeat_observable",
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


def _min_eigenvalue(arr: np.ndarray) -> float:
    # Closed form for 2x2 Hermitian matrices; this sits on the hot path
    # of every sampled state.
    if arr.shape[0] == 2:
        mean = 0.5 * (arr[0, 0].real + arr[1, 1].real)
        radius = math.hypot(0.5 * (arr[0, 0].real - arr[1, 1].real), abs(arr[0, 1]))
        return mean - radius
    return float(np.linalg.eigvalsh(arr)[0])


def _min_eigenvalues(arr: np.ndarray) -> np.ndarray:
    # Lanes form of _min_eigenvalue on an (n, N, N) stack.  eigvalsh
    # runs on the finite rows only, so that one bad row cannot fail the
    # stack; the others read NaN, which fails no floor comparison, and
    # the Hermitian check marks them (the scalar path raises ValueError
    # there, from HermitianMatrix or from eigvalsh).
    if arr.shape[1] == 2:
        d0 = arr[:, 0, 0].real
        d1 = arr[:, 1, 1].real
        radius = per_element(math.hypot, 0.5 * (d0 - d1), per_element(abs, arr[:, 0, 1]))
        return 0.5 * (d0 + d1) - radius
    finite = np.isfinite(arr).all(axis=(1, 2))
    if finite.all():
        return np.linalg.eigvalsh(arr)[:, 0]
    lo = np.full(arr.shape[0], np.nan)
    lo[finite] = np.linalg.eigvalsh(arr[finite])[:, 0]
    return lo


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
        arr = self.rho.array
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > _TRACE_ATOL:
            raise UnphysicalState(f"trace {tr!r} is not 1 within {_TRACE_ATOL:g}")
        lo = _min_eigenvalue(arr)
        if lo < PSD_EIGENVALUE_FLOOR:
            raise UnphysicalState(
                f"unphysical state: eigenvalue {lo:.3e} below {PSD_EIGENVALUE_FLOOR:g}"
            )
        p2 = float(self.p @ self.p)
        ref = 2.0 * (float(np.einsum("ab,ba->", arr, arr).real) - 1.0 / self.dim)
        if abs(p2 - ref) > _CONSISTENCY_ATOL:
            raise UnphysicalState(
                f"|p|^2 = {p2!r} inconsistent with matrix purity {ref!r}"
            )
        if p2 > 2.0 * (1.0 - 1.0 / self.dim) + 1e-10:
            raise UnphysicalState(f"|p|^2 = {p2!r} exceeds the pure-state norm")
        object.__setattr__(self, "p", _frozen(self.p))

    @property
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
        arr = self.matrix.array
        tr = abs(np.trace(arr))
        if tr > _TRACE_ATOL:
            raise ValueError(f"canonical observable must be traceless, |Tr| = {tr:.3e}")
        norm2 = float(self.a @ self.a)
        ref = 0.5 * float(np.einsum("ab,ba->", arr, arr).real)
        if not abs(norm2 - ref) <= _CONSISTENCY_ATOL:  # also rejects NaN (overflow)
            raise ValueError(f"|a|^2 = {norm2!r} inconsistent with Tr[A^2]/2 = {ref!r}")
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "a_prime", _frozen(self.a_prime))

    @property
    def norm2(self) -> float:
        """|a|² = Tr[A²]/2."""
        return float(self.a @ self.a)

    @property
    def prime_norm2(self) -> float:
        """|a'|² = (Tr[A⁴] - Tr[A²]²/N)/2."""
        return float(self.a_prime @ self.a_prime)


def state_from_matrix(rho: HermitianMatrix, basis: GeneratorBasis) -> QuantumState:
    """Decompose a density matrix into a validated ``QuantumState``."""
    if rho.dim != basis.dim:
        raise DimensionMismatch("matrix and basis dimensions disagree")
    coeffs = np.einsum("ab,jba->j", rho.array, basis.stacked())
    if np.abs(coeffs.imag).max(initial=0.0) > 1e-12:
        raise UnphysicalState("Bloch components of a Hermitian matrix must be real")
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
    arr = np.eye(basis.dim, dtype=np.complex128) / basis.dim
    arr += 0.5 * np.einsum("j,jab->ab", p, basis.stacked())
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
    arr = a.array - (tr / basis.dim) * np.eye(basis.dim)
    coeffs = 0.5 * np.einsum("ab,jba->j", arr, basis.stacked())
    vec = coeffs.real
    a_prime = basis.d_contract(vec)
    _check_prime(arr, a_prime, basis)
    return Observable(basis.dim, HermitianMatrix(arr), vec, a_prime, float(tr))


def observable_from_bloch(a_vec, basis: GeneratorBasis) -> Observable:
    """Build the observable Σ_j a_j g_j from real coefficients."""
    vec = np.asarray(a_vec, dtype=np.float64)
    if vec.shape != (basis.n_generators,):
        raise DimensionMismatch(f"expected a vector of length {basis.n_generators}")
    arr = np.einsum("j,jab->ab", vec, basis.stacked())
    a_prime = basis.d_contract(vec)
    _check_prime(arr, a_prime, basis)
    return Observable(basis.dim, HermitianMatrix(arr), vec, a_prime, 0.0)


def _check_prime(arr: np.ndarray, a_prime: np.ndarray, basis: GeneratorBasis) -> None:
    # Independent route: a' is the coefficient vector of the traceless
    # part of A^2.
    sq = arr @ arr
    sq = sq - (np.trace(sq).real / basis.dim) * np.eye(basis.dim)
    ref = 0.5 * np.einsum("ab,jba->j", sq, basis.stacked()).real
    err = float(np.abs(a_prime - ref).max(initial=0.0))
    if not err <= _CONSISTENCY_ATOL:  # also rejects NaN (overflow)
        raise ValueError(
            f"contracted vector disagrees with the A^2 decomposition by {err:.3e}"
        )


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


def _post_init_failures(rho: np.ndarray, p: np.ndarray, dim: int) -> np.ndarray:
    # QuantumState.__post_init__, row by row, on symmetrized matrices and
    # the vectors it is given; True where it raises UnphysicalState.
    bad = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0) > _TRACE_ATOL
    bad |= _min_eigenvalues(rho) < PSD_EIGENVALUE_FLOOR
    p2 = row_dot(p, p)
    ref = 2.0 * (np.einsum("nab,nba->n", rho, rho).real - 1.0 / dim)
    bad |= np.abs(p2 - ref) > _CONSISTENCY_ATOL
    bad |= p2 > 2.0 * (1.0 - 1.0 / dim) + 1e-10
    return bad


def state_from_matrix_batch(rho: np.ndarray, basis: GeneratorBasis) -> StateBatch:
    """Lanes form of ``state_from_matrix(HermitianMatrix(rho[i]), basis)``."""
    rho, bad = hermitian_batch(rho)
    coeffs = basis.trace_rows(rho)
    bad |= np.abs(coeffs.imag).max(axis=1) > 1e-12
    # QuantumState sees the strided view coeffs.real and stores a
    # contiguous copy, and the BLAS dot of each can round differently, so
    # both are kept.
    bad |= _post_init_failures(rho, coeffs.real, basis.dim)
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
    eye = np.eye(basis.dim, dtype=np.complex128) / basis.dim
    # The scalar checks in order: HermitianMatrix (ValueError), then
    # QuantumState, whose eigenvalue floor is the one solve of the stack.
    rho, not_hermitian = hermitian_batch(eye + 0.5 * basis.combine_rows(p))
    post_init = _post_init_failures(rho, p, basis.dim)
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


def repeat_observable(obs: Observable, count: int) -> ObservableBatch:
    """``count`` rows of one validated observable."""
    matrix = np.repeat(obs.matrix.array[None], count, axis=0)
    a = np.repeat(obs.a[None], count, axis=0)
    a_prime = np.repeat(obs.a_prime[None], count, axis=0)
    return ObservableBatch(
        matrix, a, a_prime, np.full(count, obs.norm2), np.zeros(count, dtype=bool)
    )


def _prime_failures(arr: np.ndarray, a_prime: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    # _check_prime, row by row.
    sq = arr @ arr
    sq -= (np.trace(sq, axis1=1, axis2=2).real / basis.dim)[:, None, None] * np.eye(basis.dim)
    ref = 0.5 * basis.trace_rows(sq).real
    return ~(np.abs(a_prime - ref).max(axis=1, initial=0.0) <= _CONSISTENCY_ATOL)


def observable_from_bloch_batch(vec: np.ndarray, basis: GeneratorBasis) -> ObservableBatch:
    """Lanes form of ``observable_from_bloch(vec[i], basis)``."""
    vec = np.asarray(vec, dtype=np.float64)
    arr = basis.combine_rows(vec)
    a_prime = basis.d_contract(vec)
    bad = _prime_failures(arr, a_prime, basis)
    matrix, bad_h = hermitian_batch(arr)
    bad |= bad_h
    # Observable.__post_init__, row by row.
    bad |= per_element(abs, np.trace(matrix, axis1=1, axis2=2)) > _TRACE_ATOL
    norm2 = row_dot(vec, vec)
    ref = 0.5 * np.einsum("nab,nba->n", matrix, matrix).real
    bad |= ~(np.abs(norm2 - ref) <= _CONSISTENCY_ATOL)
    return ObservableBatch(matrix, vec, a_prime, norm2, bad)


def completely_mixed(basis: GeneratorBasis) -> QuantumState:
    """The maximally mixed state I/N."""
    return state_to_matrix(np.zeros(basis.n_generators), basis)


def matrix_from_json(obj: dict) -> HermitianMatrix:
    """Build a Hermitian matrix from the JSON wire format.

    Expected keys: ``dim`` (int) plus row-major ``re`` and ``im`` arrays
    of length dim².  ``im`` may be omitted for real matrices.
    """
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64).reshape(dim, dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if "im" in obj and obj["im"] is not None:
        im = np.asarray(obj["im"], dtype=np.float64).reshape(dim, dim)
    else:
        im = np.zeros((dim, dim))
    return HermitianMatrix(re + 1.0j * im)
