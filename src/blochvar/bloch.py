"""Bloch-vector representations of states and observables.

A density matrix decomposes as rho = I/N + (1/2) Σ_j p_j g_j with
p_j = Tr[rho g_j]; a traceless Hermitian observable as A = Σ_j a_j g_j
with a_j = Tr[A g_j] / 2.  The squared norm |p|² = 2 (Tr[rho²] - 1/N)
measures pureness: 0 for the completely mixed state, 2(1 - 1/N) for pure
states.  Observables additionally carry the contracted vector
a'_l = Σ_jk a_j a_k d_jkl, the coefficient vector of the traceless part
of A², which enters every variance formula beyond the qubit case.

Positivity is verified, never assumed: reconstructing a matrix from a
Bloch vector checks the smallest eigenvalue, because for N > 2 the
physical Bloch body is a proper subset of the norm ball and silently
clipping would corrupt boundary searches downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UnphysicalState
from .linalg import HermitianMatrix
from .sun_basis import GeneratorBasis

__all__ = [
    "QuantumState",
    "Observable",
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
        tr = np.trace(arr).real
        if abs(tr - 1.0) > _TRACE_ATOL:
            raise UnphysicalState(f"trace {tr!r} is not 1 within {_TRACE_ATOL:g}")
        lo = _min_eigenvalue(arr)
        if lo < PSD_EIGENVALUE_FLOOR:
            raise UnphysicalState(f"negative eigenvalue {lo:.3e} below {PSD_EIGENVALUE_FLOOR:g}")
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
        if abs(norm2 - ref) > _CONSISTENCY_ATOL:
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
    ball, so a norm check alone would not do.
    """
    p = np.asarray(p, dtype=np.float64)
    n = basis.n_generators
    if p.shape != (n,):
        raise DimensionMismatch(f"expected a Bloch vector of length {n}")
    arr = np.eye(basis.dim, dtype=np.complex128) / basis.dim
    arr += 0.5 * np.einsum("j,jab->ab", p, basis.stacked())
    lo = _min_eigenvalue(arr)
    if lo < PSD_EIGENVALUE_FLOOR:
        raise UnphysicalState(
            f"unphysical Bloch vector: reconstruction has eigenvalue {lo:.3e}"
        )
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
    if err > _CONSISTENCY_ATOL:
        raise ValueError(
            f"contracted vector disagrees with the A^2 decomposition by {err:.3e}"
        )


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
