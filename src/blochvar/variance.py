"""Variances computed two independent ways, plus the angle geometry.

The matrix route is the definition ΔA² = Tr[A² rho] - Tr[A rho]²; the
Bloch route is the reformulation

    ΔA² = (2/N) |a|² + a' · p - (a · p)²

The two must agree to 1e-9 for every valid pair, which downstream fuzzing
leans on heavily.  For a qubit the contracted vector vanishes and the
variance collapses to |a|² (1 - |p|² cos² θ_pa), so the whole geometry
lives in angles between Bloch vectors; ``angles`` exposes them, unfolded
in [0, π].

``pair_geometry`` evaluates the ten norms and inner products of the
quaternary {a, a', b, b'} both from the coefficient vectors and from
operator traces, and insists the two agree, which makes it a
basis-corruption detector as much as a convenience.  One table,
``_PAIRS``, gives each ``PairGeometry`` field as a pair (i, j) of
indices into (a, a', b, b') and into (A, A², B, B²): the field is
x_i · x_j and (Tr[X_i X_j] - Tr[X_i] Tr[X_j]/N)/2, where only A² and
B² have a trace (a · b = Tr[AB]/2, a' · b' = (Tr[A²B²] -
Tr[A²]Tr[B²]/N)/2, ...).  The same table gives the pairs that
``PairGeometry`` checks by Cauchy-Schwarz.  Both checks scale with
the operands, as a' grows as |a|²: the routes agree to 1e-10 of
max(1, s_i s_j) with s = (|a|, |a|², |b|, |b|²), and |x_i · x_j|
exceeds |x_i| |x_j| by at most 1e-10 of max(1, |x_i| |x_j|).  Every
check here is written so that a NaN fails it.

Each quantity is one function over one object or the rows of the
batched engine, as ``relations``' relations are: ``_variance_matrix``,
``_variance_bloch``, ``_vector_angle`` and ``_angles`` return their
values and their checks, ``(holds, error, template, *values)`` tuples,
which the scalar function raises (``linalg.raise_first``).  The
relations of ``relations`` call them on rows too, where the engine
reduces their checks to the rows that fail one (``linalg.failures``):
``_variance_matrix`` on matrices, ``_variance_bloch`` in the pair
scan's point and ``_angles`` in the triangle.  Both variances share one
floor and its check, ``_floored``, so a NaN variance raises
``NumericsError`` on either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import Observable, QuantumState
from .errors import DimensionMismatch, NumericsError, UndefinedAngle
from .linalg import per_element, py_max, py_min, raise_first, row_dot, where
from .sun_basis import GeneratorBasis

__all__ = [
    "VarianceReport",
    "AngleSet",
    "PairGeometry",
    "variance_matrix",
    "variance_bloch",
    "variance_report",
    "angles",
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
        if not self.discrepancy <= _ROUTE_ATOL:
            raise NumericsError(
                f"variance routes disagree by {self.discrepancy:.3e}"
            )
        if not self.variance >= _NEGATIVE_VARIANCE_FLOOR:
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


# Each PairGeometry field, in field order, as its pair of indices into
# (a, a', b, b') and into (A, A², B, B²).  dot_b_aprime is a' · b, the
# trace of A²B.
_PAIRS = {
    "a2": (0, 0), "a_prime2": (1, 1), "b2": (2, 2), "b_prime2": (3, 3),
    "dot_ab": (0, 2), "dot_a_bprime": (0, 3), "dot_a_aprime": (0, 1),
    "dot_b_bprime": (2, 3), "dot_b_aprime": (1, 2), "dot_aprime_bprime": (1, 3),
}


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
        norms = (self.a2, self.a_prime2, self.b2, self.b_prime2)
        for name, (i, j) in _PAIRS.items():
            dot, root = getattr(self, name), math.sqrt(max(norms[i], 0.0) * max(norms[j], 0.0))
            if i != j and not abs(dot) - root <= _GEOMETRY_ATOL * max(1.0, root):
                raise NumericsError(
                    f"inner product {dot!r} violates Cauchy-Schwarz for norms "
                    f"{norms[i]!r}, {norms[j]!r}"
                )


def _check_dims(a: Observable, rho: QuantumState) -> None:
    if a.dim != rho.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {rho.dim}")


def _second_moment(am: np.ndarray, rm: np.ndarray) -> np.ndarray:
    # Tr[A² rho] of (..., N, N) matrices, A broadcast against rho.  On a
    # stack the three-operand einsum runs on blocks of rows of about
    # 1,024 elements: above that its iterator's buffers grow to 8,192
    # elements an operand (384 KB for three complex ones).
    if rm.ndim == 2:
        return _trace_a2_rho(am, rm)
    if am.ndim == 2:
        am = np.broadcast_to(am, rm.shape)
    step = max(1, 1024 // rm.shape[-1] ** 3)
    second = np.empty(len(rm))
    for start in range(0, len(rm), step):
        rows = slice(start, start + step)
        second[rows] = _trace_a2_rho(am[rows], rm[rows])
    return second


def _trace_a2_rho(am: np.ndarray, rm: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,...bc,...ca->...", am, am, rm).real


def _floored(value) -> tuple:
    # A variance floored at 0, and the check that it is not negative
    # beyond round-off (NaN fails it).
    return py_max(value, 0.0), [
        (value >= _NEGATIVE_VARIANCE_FLOOR, NumericsError,
         "variance {} negative beyond round-off", value),
    ]


def _variance_matrix(am: np.ndarray, rm: np.ndarray) -> tuple:
    # ΔA² from the defining traces, floored at 0, and its check.
    mean = np.einsum("...ab,...ba", am, rm).real
    return _floored(_second_moment(am, rm) - mean * mean)


def _variance_bloch(a, rho, n: int) -> tuple:
    # ΔA² from the Bloch vectors at N = n, floored at 0, and its check.
    mean = row_dot(a.a, rho.p)
    return _floored((2.0 / n) * a.norm2 + row_dot(a.a_prime, rho.p) - mean * mean)


def variance_matrix(a: Observable, rho: QuantumState) -> float:
    """ΔA² from the defining traces."""
    _check_dims(a, rho)
    value, checks = _variance_matrix(a.matrix.array, rho.rho.array)
    raise_first(checks)
    return float(value)


def _check_bloch_dims(a: Observable, rho: QuantumState, basis: GeneratorBasis) -> None:
    _check_dims(a, rho)
    if basis.dim != a.dim:
        raise DimensionMismatch("basis dimension disagrees with operands")


def variance_bloch(a: Observable, rho: QuantumState, basis: GeneratorBasis) -> float:
    """ΔA² from Bloch vectors: (2/N)|a|² + a'·p - (a·p)²."""
    _check_bloch_dims(a, rho, basis)
    value, checks = _variance_bloch(a, rho, a.dim)
    raise_first(checks)
    return float(value)


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


def _vector_angle(u: np.ndarray, v: np.ndarray) -> tuple:
    # The angle between (..., n) vectors u and v, and its checks.
    nu = np.sqrt(row_dot(u, u))
    nv = np.sqrt(row_dot(v, v))
    finite = nu * nv < math.inf  # also fails NaN
    nonzero = (nu >= _ZERO_NORM) & (nv >= _ZERO_NORM)
    c = row_dot(u, v) / where(finite & nonzero, nu * nv, 1.0)
    return per_element(math.acos, py_min(1.0, py_max(-1.0, c))), [
        (finite, ValueError,
         "angle undefined for norms {} and {}: their product must be finite", nu, nv),
        (nonzero, UndefinedAngle, "angle undefined for a zero-norm vector"),
        (abs(c) <= 1.0 + _COS_EXCESS, NumericsError, "cosine {} exceeds 1 beyond round-off", c),
    ]


def _angles(a, b, rho) -> tuple:
    # theta_pa, theta_pb and theta_ab, each the acos of a clamped cosine
    # (in [0, pi]), and their checks.
    found = [_vector_angle(u, v) for u, v in ((rho.p, a.a), (rho.p, b.a), (a.a, b.a))]
    mixed = (np.sqrt(rho.purity) >= _ZERO_NORM, UndefinedAngle,
             "angles are undefined for the completely mixed state (|p| = 0)")
    return *(theta for theta, _ in found), [mixed, *(c for _, checks in found for c in checks)]


def vector_angle(u, v) -> float:
    """Angle between two real vectors, in [0, π].

    Raises ``ValueError`` for operands whose norms do not have a finite
    product (a non-finite entry, or an overflow), and ``UndefinedAngle``
    for a zero-norm operand, and ``ValueError`` unless ``u`` and ``v`` are
    1-D and of one length.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"vector_angle takes two 1-D vectors of one length, not {u.shape}, {v.shape}")
    theta, checks = _vector_angle(u, v)
    raise_first(checks)
    return theta


def angles(a: Observable, b: Observable, rho: QuantumState) -> AngleSet:
    """Angles between the state's Bloch vector and the observables'.

    The completely mixed state has |p| = 0 and is rejected: the relation
    checkers handle that limit through their algebraic forms, which never
    divide by |p|.
    """
    _check_dims(a, rho)
    _check_dims(b, rho)
    theta_pa, theta_pb, theta_ab, checks = _angles(a, b, rho)
    raise_first(checks)
    return AngleSet(theta_pa=theta_pa, theta_pb=theta_pb, theta_ab=theta_ab)


def _trace(mat: np.ndarray) -> float:
    return float(np.trace(mat).real)


def _pair_routes(a: Observable, b: Observable) -> dict:
    # Each PairGeometry field's (vector value, trace value), by its pair.
    n = float(a.dim)
    vectors = (a.a, a.a_prime, b.a, b.a_prime)
    am, bm = a.matrix.array, b.matrix.array
    mats = (am, am @ am, bm, bm @ bm)
    traces = (0.0, _trace(mats[1]), 0.0, _trace(mats[3]))
    return {
        name: (float(vectors[i] @ vectors[j]), 0.5 * (_trace(mats[i] @ mats[j]) - traces[i] * traces[j] / n))
        for name, (i, j) in _PAIRS.items()
    }


def pair_geometry(a: Observable, b: Observable, basis: GeneratorBasis) -> PairGeometry:
    """Quaternary norms and inner products, dual-computed.

    Every entry is evaluated from the coefficient vectors and from the
    corresponding operator-trace identity; a disagreement above 1e-10 of
    max(1, s_i s_j), s = (|a|, |a|², |b|, |b|²), or a NaN on either route,
    raises ``NumericsError`` since it can only mean the basis or the
    decomposition is corrupted, or an entry overflowed.  Stored values
    are the vector ones.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    if basis.dim != a.dim:
        raise DimensionMismatch("basis dimension disagrees with operands")
    scale = (math.sqrt(a.norm2), a.norm2, math.sqrt(b.norm2), b.norm2)
    routes = _pair_routes(a, b)
    for name, (i, j) in _PAIRS.items():
        vector, traced = routes[name]
        if not abs(vector - traced) <= _GEOMETRY_ATOL * max(1.0, scale[i] * scale[j]):
            raise NumericsError(
                f"{name}: vector value {vector!r} disagrees with trace value "
                f"{traced!r} (basis corruption?)"
            )
    return PairGeometry(**{name: vector for name, (vector, _) in routes.items()})
