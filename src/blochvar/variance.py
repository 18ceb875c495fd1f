"""Variances computed two independent ways, plus the angle geometry.

The matrix route is the definition ΔA² = Tr[A² rho] - Tr[A rho]²; the
Bloch route is the reformulation

    ΔA² = (2/N) |a|² + a' · p - (a · p)²

The two must agree to 1e-9 for every valid pair, which downstream fuzzing
leans on heavily.  For a qubit the contracted vector vanishes and the
variance collapses to |a|² (1 - |p|² cos² θ_pa), so the whole geometry
lives in angles between Bloch vectors; ``angles`` exposes them, unfolded
in [0, π].

``pair_geometry`` evaluates the six inner products of the quaternary
{a, a', b, b'} both from the coefficient vectors and from operator
traces (a · b = Tr[AB]/2, a · b' = Tr[AB²]/2, a' · b' =
(Tr[A²B²] - Tr[A²]Tr[B²]/N)/2, ...) and insists the two agree, which
makes it a basis-corruption detector as much as a convenience.

``variance_matrix_batch``, ``variance_bloch_batch`` and ``angles_batch``
are the lanes forms the batched engine uses, at any N: every check runs
per row and marks failing rows in a returned ``bad`` mask instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import Observable, ObservableBatch, QuantumState, StateBatch
from .errors import DimensionMismatch, NumericsError, UndefinedAngle
from .linalg import per_element, py_max, py_min, row_dot
from .sun_basis import GeneratorBasis

__all__ = [
    "VarianceReport",
    "AngleSet",
    "PairGeometry",
    "variance_matrix",
    "variance_matrix_batch",
    "variance_bloch",
    "variance_bloch_batch",
    "variance_report",
    "angles",
    "angles_batch",
    "vector_angle",
    "pair_geometry",
]

_NEGATIVE_VARIANCE_FLOOR = -1e-12
_ROUTE_ATOL = 1e-9
_GEOMETRY_ATOL = 1e-10
_COS_EXCESS = 1e-9
_ZERO_NORM = 1e-14


@dataclass(frozen=True)
class VarianceReport:
    """Variance of one observable in one state, both routes side by side."""

    variance: float
    mean: float
    via_matrix: float
    via_bloch: float
    discrepancy: float

    def __post_init__(self):
        if self.discrepancy > _ROUTE_ATOL:
            raise NumericsError(
                f"variance routes disagree by {self.discrepancy:.3e}"
            )
        if self.variance < _NEGATIVE_VARIANCE_FLOOR:
            raise NumericsError(f"negative variance {self.variance!r}")


@dataclass(frozen=True)
class AngleSet:
    """Angles between the state vector and observable vectors, radians,
    unfolded in [0, π]."""

    theta_pa: float
    theta_pb: float
    theta_ab: float

    def __post_init__(self):
        for name in ("theta_pa", "theta_pb", "theta_ab"):
            value = getattr(self, name)
            if not -1e-12 <= value <= math.pi + 1e-12:
                raise ValueError(f"{name} = {value!r} outside [0, pi]")


@dataclass(frozen=True)
class PairGeometry:
    """Norms and inner products of the quaternary {a, a', b, b'}."""

    a2: float
    a_prime2: float
    b2: float
    b_prime2: float
    dot_ab: float
    dot_a_bprime: float
    dot_a_aprime: float
    dot_b_bprime: float
    dot_b_aprime: float
    dot_aprime_bprime: float

    def __post_init__(self):
        pairs = [
            (self.dot_ab, self.a2, self.b2),
            (self.dot_a_bprime, self.a2, self.b_prime2),
            (self.dot_a_aprime, self.a2, self.a_prime2),
            (self.dot_b_bprime, self.b2, self.b_prime2),
            (self.dot_b_aprime, self.b2, self.a_prime2),
            (self.dot_aprime_bprime, self.a_prime2, self.b_prime2),
        ]
        for dot, n1, n2 in pairs:
            if abs(dot) > math.sqrt(max(n1, 0.0) * max(n2, 0.0)) + _GEOMETRY_ATOL:
                raise NumericsError(
                    f"inner product {dot!r} violates Cauchy-Schwarz for norms "
                    f"{n1!r}, {n2!r}"
                )


def _check_dims(a: Observable, rho: QuantumState) -> None:
    if a.dim != rho.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {rho.dim}")


def _finalize(value: float) -> float:
    if value < _NEGATIVE_VARIANCE_FLOOR:
        raise NumericsError(f"variance {value!r} negative beyond round-off")
    return max(value, 0.0)


def variance_matrix(a: Observable, rho: QuantumState) -> float:
    """ΔA² from the defining traces."""
    _check_dims(a, rho)
    am = a.matrix.array
    rm = rho.rho.array
    second = np.einsum("ab,bc,ca->", am, am, rm).real
    mean = np.einsum("ab,ba->", am, rm).real
    return _finalize(float(second - mean * mean))


def variance_matrix_batch(am: np.ndarray, rm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lanes form of ``variance_matrix`` on (n, N, N) observable and state
    matrices; returns ``(variances, bad)``."""
    # The three-operand einsum runs on blocks of rows of about 1,024
    # elements: above that its iterator's buffers grow to 8,192 elements
    # an operand (384 KB for three complex ones).
    step = max(1, 1024 // am.shape[1] ** 3)
    second = np.empty(len(am))
    for start in range(0, len(am), step):
        rows = slice(start, start + step)
        second[rows] = np.einsum("nab,nbc,nca->n", am[rows], am[rows], rm[rows]).real
    mean = np.einsum("nab,nba->n", am, rm).real
    value = second - mean * mean
    return py_max(value, 0.0), value < _NEGATIVE_VARIANCE_FLOOR


def variance_bloch(a: Observable, rho: QuantumState, basis: GeneratorBasis) -> float:
    """ΔA² from Bloch vectors: (2/N)|a|² + a'·p - (a·p)²."""
    _check_dims(a, rho)
    if basis.dim != a.dim:
        raise DimensionMismatch("basis dimension disagrees with operands")
    mean = float(a.a @ rho.p)
    value = (2.0 / a.dim) * a.norm2 + float(a.a_prime @ rho.p) - mean * mean
    return _finalize(value)


def variance_bloch_batch(a: ObservableBatch, rho: StateBatch) -> tuple[np.ndarray, np.ndarray]:
    """Lanes form of ``variance_bloch``; returns ``(variances, bad)``."""
    mean = row_dot(a.a, rho.p)
    value = (2.0 / a.matrix.shape[1]) * a.norm2 + row_dot(a.a_prime, rho.p) - mean * mean
    return py_max(value, 0.0), value < _NEGATIVE_VARIANCE_FLOOR


def variance_report(a: Observable, rho: QuantumState, basis: GeneratorBasis) -> VarianceReport:
    """Both variance routes plus the mean, cross-checked."""
    via_matrix = variance_matrix(a, rho)
    via_bloch = variance_bloch(a, rho, basis)
    return VarianceReport(
        variance=via_matrix,
        mean=float(a.a @ rho.p),
        via_matrix=via_matrix,
        via_bloch=via_bloch,
        discrepancy=abs(via_matrix - via_bloch),
    )


def _checked_cos(dot: float, norm_u: float, norm_v: float) -> float:
    c = dot / (norm_u * norm_v)
    if abs(c) > 1.0 + _COS_EXCESS:
        raise NumericsError(f"cosine {c!r} exceeds 1 beyond round-off")
    return min(1.0, max(-1.0, c))


def vector_angle(u, v) -> float:
    """Angle between two real vectors, in [0, π].

    Raises ``UndefinedAngle`` for a zero-norm operand.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < _ZERO_NORM or nv < _ZERO_NORM:
        raise UndefinedAngle("angle undefined for a zero-norm vector")
    return math.acos(_checked_cos(float(u @ v), nu, nv))


def angles(a: Observable, b: Observable, rho: QuantumState) -> AngleSet:
    """Angles between the state's Bloch vector and the observables'.

    The completely mixed state has |p| = 0 and is rejected: the relation
    checkers handle that limit through their algebraic forms, which never
    divide by |p|.
    """
    _check_dims(a, rho)
    _check_dims(b, rho)
    if math.sqrt(rho.purity) < _ZERO_NORM:
        raise UndefinedAngle(
            "angles are undefined for the completely mixed state (|p| = 0)"
        )
    return AngleSet(
        theta_pa=vector_angle(rho.p, a.a),
        theta_pb=vector_angle(rho.p, b.a),
        theta_ab=vector_angle(a.a, b.a),
    )


def _vector_angle_batch(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Lanes form of vector_angle(u[i], v[i]) with _checked_cos.
    nu = np.sqrt(row_dot(u, u))
    nv = np.sqrt(row_dot(v, v))
    bad = (nu < _ZERO_NORM) | (nv < _ZERO_NORM)
    c = row_dot(u, v) / (nu * nv)
    bad |= np.abs(c) > 1.0 + _COS_EXCESS
    return per_element(math.acos, py_min(1.0, py_max(-1.0, c))), bad


def angles_batch(
    a: ObservableBatch, b: ObservableBatch, rho: StateBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lanes form of ``angles(a, b, rho)``: returns ``(theta_pa, theta_pb,
    theta_ab, bad)``."""
    bad = np.sqrt(rho.purity) < _ZERO_NORM
    theta_pa, bad_pa = _vector_angle_batch(rho.p, a.a)
    theta_pb, bad_pb = _vector_angle_batch(rho.p, b.a)
    theta_ab, bad_ab = _vector_angle_batch(a.a, b.a)
    bad |= bad_pa | bad_pb | bad_ab  # each angle is acos of a clamped cosine: in [0, pi]
    return theta_pa, theta_pb, theta_ab, bad


def pair_geometry(a: Observable, b: Observable, basis: GeneratorBasis) -> PairGeometry:
    """Quaternary norms and inner products, dual-computed.

    Every entry is evaluated from the coefficient vectors and from the
    corresponding operator-trace identity; a disagreement above 1e-10
    raises ``NumericsError`` since it can only mean the basis or the
    decomposition is corrupted.  Stored values are the vector ones.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    if basis.dim != a.dim:
        raise DimensionMismatch("basis dimension disagrees with operands")
    n = float(a.dim)
    am = a.matrix.array
    bm = b.matrix.array
    a2m = am @ am
    b2m = bm @ bm
    tr_a2 = np.trace(a2m).real
    tr_b2 = np.trace(b2m).real

    def tr(mat: np.ndarray) -> float:
        return float(np.trace(mat).real)

    vector = {
        "a2": float(a.a @ a.a),
        "a_prime2": float(a.a_prime @ a.a_prime),
        "b2": float(b.a @ b.a),
        "b_prime2": float(b.a_prime @ b.a_prime),
        "dot_ab": float(a.a @ b.a),
        "dot_a_bprime": float(a.a @ b.a_prime),
        "dot_a_aprime": float(a.a @ a.a_prime),
        "dot_b_bprime": float(b.a @ b.a_prime),
        "dot_b_aprime": float(b.a @ a.a_prime),
        "dot_aprime_bprime": float(a.a_prime @ b.a_prime),
    }
    traced = {
        "a2": 0.5 * tr_a2,
        "a_prime2": 0.5 * (tr(a2m @ a2m) - tr_a2 * tr_a2 / n),
        "b2": 0.5 * tr_b2,
        "b_prime2": 0.5 * (tr(b2m @ b2m) - tr_b2 * tr_b2 / n),
        "dot_ab": 0.5 * tr(am @ bm),
        "dot_a_bprime": 0.5 * tr(am @ b2m),
        "dot_a_aprime": 0.5 * tr(am @ a2m),
        "dot_b_bprime": 0.5 * tr(bm @ b2m),
        "dot_b_aprime": 0.5 * tr(a2m @ bm),
        "dot_aprime_bprime": 0.5 * (tr(a2m @ b2m) - tr_a2 * tr_b2 / n),
    }
    for key, value in vector.items():
        if abs(value - traced[key]) > _GEOMETRY_ATOL:
            raise NumericsError(
                f"{key}: vector value {value!r} disagrees with trace value "
                f"{traced[key]!r} (basis corruption?)"
            )
    return PairGeometry(**vector)
