"""Uncertainty and certainty relations over Bloch-vector geometry.

Every checker returns a :class:`RelationVerdict` carrying both sides of
its inequality and the signed margin ``lhs - rhs``, never a bare boolean:
fuzz loops need graded diagnostics.  ``holds`` means the margin is above
``-tolerance`` (1e-10 for all relations except the N-dimensional
trade-off, which is specified at 1e-9); ``saturated`` means the margin is
within 1e-9 of zero.

Relation catalogue
------------------
triangle
    |θ_pa - θ_pb| <= θ_ab <= θ_pa + θ_pb on unfolded angles; qubit only.
theorem1
    The state-independent qubit bound
    sqrt(a²(p²-1) + ΔA²) sqrt(b²(p²-1) + ΔB²)
        >= | sqrt(a²-ΔA²) sqrt(b²-ΔB²) - g p² |
    for arbitrary observables and any purity.
mixed_limit
    At p = 0 the bound forces ΔA² = a² and ΔB² = b² exactly.
pure_limit
    At p² = 1: ΔA ΔB >= | sqrt(a²-ΔA²) sqrt(b²-ΔB²) - g |.
unit_vector
    The scalar form for unit observables,
    ΔA ΔB >= | sqrt(1-ΔA²) sqrt(1-ΔB²) - cos θ_ab |.
three_obs_equality
    For the axis triple a = x, b = x cosθ + y sinθ, c = z and a pure
    qubit state the three variances are exactly constrained:
    ΔA² + ΔB² + ΔC² sin²θ + 2 cosθ sqrt(1-ΔA²) sqrt(1-ΔB²) = 2.
appendix_b
    Δσ₁² + Δσ₂² + Δσ₃² = 3 - |p|² for every qubit state.
appendix_c
    For N-level observables with ⟨A⟩ = ⟨B⟩ = 0 (p orthogonal to both
    coefficient vectors), with x = ΔA² - Tr[A²]/N and y likewise:
    sqrt(a'²p² - x²) sqrt(b'²p² - y²) >= | x y - g' p² |.
robertson
    ΔA ΔB >= |⟨[A, B]⟩| / 2, the commutator baseline.
state_dependent
    ΔA² + ΔB² >= ±i⟨ψ|[A,B]|ψ⟩ + |⟨ψ|A ± iB|ψ⊥⟩|² for pure qubit
    states, the state-dependent comparison baseline; its checker gives
    both signs at once.

Sign convention
---------------
Negating an observable leaves every variance unchanged but flips both
its dot with p and its overlap g with the partner observable, so the
square-root bounds above are stated in the convention where the state
cosines are nonnegative (angles folded into [0, π/2]).  Evaluating the
product of square roots with the sign of (a·p)(b·p) attached is exactly
equivalent to folding and works for every input, so that is what the
checkers do.

One function a relation
-----------------------
Every relation is stated once, in a private function (``_theorem1``,
``_unit_vector_relation``, ...) that takes the parameters of its public
checker, by the same names, over one sample's objects or over
``StateBatch``/``ObservableBatch`` rows: (..., n) vectors, and
(..., N, N) matrices read through ``linalg.array_of``.  A scan point's
fixed operands (A and B, or θ_ab) are broadcast against the rows, and
its ``index``, the sample's stream (a row's on rows), names the sample
in its errors.  The function returns lhs, rhs and its checks, ``(holds,
error, template, *values)`` tuples (``linalg.raise_first``), in the
order the public checker raises them; state-dependent returns an rhs
per sign, and a scan point its values as lhs, against 0.  The public
checker checks the dimensions, raises the first check that does not
hold and returns a verdict of Python floats (``_scalar_verdict``).  The
verify engine calls the function itself on rows, at the N its row
admits, and reduces the return to lhs - rhs and the rows on which a
check fails (``engine.chunks``): on row i, bit for bit the margin of
the checker's verdict on row i's objects, and bad exactly where the
checker raises.  The function reads no input's ``bad`` flags: the
engine marks the rows whose draws failed itself.  Verdicts use the
checker's tolerance (``HOLDS_TOL``, or ``APPENDIX_C_TOL`` for
appendix-c) and ``SATURATION_TOL``, as ``_verdict`` does.

The primitives of ``linalg`` keep one sample on Python floats, so that a
light scalar checker costs a few microseconds.  The triangle and the
scan points compose the functions of others (the angles, theorem1, the
Bloch variance) and state their own parts once; the three-observable
equality and the triple scan point both take ``_axis_triple``, which
gives the triple's variances with the equality, so a scan row computes
them once; ``check_unit_vector_state`` composes the unit-vector
relation with ``_effective_axis_angle``, which ``effective_axis_angle``
raises alone.
The unit-vector relation's cosine is ``np.cos`` on both shapes, which
equals ``math.cos`` (see ``linalg``), so its scalar verdicts are those
``math.cos`` gave.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import Observable, QuantumState, observable_from_bloch
from .errors import DimensionMismatch, NotApplicable, NumericsError, UndefinedAngle
from .linalg import array_of, components, per_element, py_max, py_min, raise_first, row_dot, where
from .sun_basis import GeneratorBasis, basis_for
from .variance import _angles, _check_bloch_dims, _variance_bloch, _variance_matrix

__all__ = [
    "RelationVerdict",
    "check_triangle",
    "check_theorem1",
    "check_mixed_limit",
    "check_pure_limit",
    "check_unit_vector_relation",
    "check_three_observable_equality",
    "check_appendix_b",
    "check_appendix_c",
    "robertson_bound",
    "state_dependent_bound",
    "check_unit_vector_state",
    "effective_axis_angle",
    "scan_pair_point",
    "scan_triple_point",
    "db_span_given_da2",
    "db_span_any_state",
]

HOLDS_TOL = 1e-10
APPENDIX_C_TOL = 1e-9
SATURATION_TOL = 1e-9
# Largest |<A>| and |<B>| the appendix-c trade-off accepts as zero, read
# by ``_zero_means`` alone: the trade-off's precondition, and the test
# the verify engine's rejection draws accept a try by, so they accept
# exactly the tries that pass this check.
ZERO_MEAN_TOL = 1e-9
_RADICAND_FLOOR = -1e-10
# Round-off slack of theorem1's (a·p)² <= |a|² |p|², and of B's.
_NORM_SLACK = 1e-10
# Largest ||p|² - 1| of a state the pure-state relations accept.
_PURITY_ATOL = 1e-9
# Largest gap between appendix-c's shifted variances by the matrix route
# and by the vector route a'·p.
_ROUTES_ATOL = 1e-11
# Largest |Re⟨ψ|[A,B]|ψ⟩| state-dependent accepts as imaginary.
_REAL_COMMUTATOR_ATOL = 1e-10
_SCAN_MARGIN_FLOOR = -1e-9  # smallest theorem1 margin a pair scan accepts
_SURFACE_TOL = 1e-9  # largest |residual| of a triple sample off the certainty surface


@dataclass(frozen=True)
class RelationVerdict:
    """Outcome of one relation check: both sides, margin, and flags."""

    relation_id: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    saturated: bool
    tolerance: float = HOLDS_TOL


def _verdict(relation_id: str, lhs: float, rhs: float, tol: float = HOLDS_TOL) -> RelationVerdict:
    # The fields are set directly: the frozen dataclass's __init__, one
    # object.__setattr__ a field, took half of a light checker's time.
    margin = lhs - rhs
    verdict = object.__new__(RelationVerdict)
    verdict.__dict__.update(
        relation_id=relation_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tol,
        saturated=abs(margin) <= SATURATION_TOL,
        tolerance=tol,
    )
    return verdict


def _require_qubit(*dims: int) -> None:
    for d in dims:
        if d != 2:
            raise DimensionMismatch(f"this relation is defined for qubits only, got dim {d}")


def _scalar_verdict(relation_id: str, values: tuple, tol: float = HOLDS_TOL) -> RelationVerdict:
    # The verdict of a shared function's (lhs, rhs, checks) on one
    # sample, which raises the first check that does not hold.
    lhs, rhs, checks = values
    raise_first(checks)
    return _verdict(relation_id, float(lhs), float(rhs), tol)


def _scalar_values(values: tuple) -> tuple:
    # A scan point's values, as Python floats, of its function's
    # (values, 0, checks) on one sample, which raises the first check
    # that does not hold.
    values, _, checks = values
    raise_first(checks)
    return tuple(map(float, values))


def _within(value, hi: float):
    # -1e-12 <= value <= hi + 1e-12, elementwise; NaN is outside.
    return (-1e-12 <= value) & (value <= hi + 1e-12)


def _pure(rho, error: type, template: str) -> tuple:
    # The check that rho's rows are pure states, printing |p|².
    p2 = rho.purity
    return (abs(p2 - 1.0) <= _PURITY_ATOL, error, template, p2)


def _sqrt_radicand(value, what: str) -> tuple:
    # The square root of a radicand floored at 0, and the check that it
    # is not negative beyond round-off.
    return np.sqrt(py_max(value, 0.0)), (
        value >= _RADICAND_FLOOR, NumericsError, what + " radicand {} negative beyond round-off", value
    )


# _wedge_norm2 runs a stack in blocks of rows that hold at most
# _WEDGE_ENTRIES entries of the (rows, n, n) difference, 512 KB a
# temporary.  While a row's n² entries fit numpy's 8,192-element iterator
# buffer (n ≤ 90, N ≤ 9), the stacked einsum sums each row in the order of
# the one-row call, bit for bit; past it the stack splits a row's sum (147
# of 200 rows differed at n = 91), so a block is one row.  A 200-row stack
# took 46, 659 and 3,438 µs at N = 3, 6 and 9, against 1,018, 1,632 and
# 4,282 µs a row a call.  Blocks of 2¹⁸ entries took 9,264 µs at N = 9,
# and one unblocked stack raised the traced peak of verify appendix-c
# --dim 6 --samples 2100 from 10.6 to 31.8 MB.
_WEDGE_ENTRIES = 1 << 16
_EINSUM_BUFFER = 8192


def _wedge_norm2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u|²|v|² - (u·v)² of (..., n) vectors via the Lagrange identity.

    The direct difference cancels catastrophically when u and v are
    nearly parallel, and the square roots downstream amplify that noise
    to ~1e-8 near saturation; the wedge form is a sum of squares, so it
    is exact to relative round-off and nonnegative by construction.
    A stack of rows runs in blocks (``_WEDGE_ENTRIES``), each row's value
    bit-identical to the call on that row alone.
    """
    n2 = u.shape[-1] ** 2
    step = _WEDGE_ENTRIES // n2 if n2 <= _EINSUM_BUFFER else 1
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    if u.ndim == 1 or len(u) <= step:
        outer = u[..., :, None] * v[..., None, :]
        diff = outer - outer.swapaxes(-1, -2)
        return 0.5 * np.einsum("...ij,...ij->...", diff, diff)
    return np.concatenate([_wedge_norm2(u[i : i + step], v[i : i + step])
                           for i in range(0, len(u), step)])


@functools.cache
def _qubit_axes() -> tuple[Observable, ...]:
    basis = basis_for(2)
    return tuple(observable_from_bloch(np.eye(3)[i], basis) for i in range(3))


# ---------------------------------------------------------------------------
# one function a relation: (lhs, rhs, checks) of one sample or of rows


def _triangle(a, b, rho) -> tuple:
    # lhs and rhs of the binding side, of the three angles.
    pa, pb, ab, checks = _angles(a, b, rho)
    upper = pa + pb - ab <= ab - abs(pa - pb)
    return where(upper, pa + pb, ab), where(upper, ab, abs(pa - pb)), checks


def _theorem1(a, b, rho) -> tuple:
    p2 = rho.purity
    sa = row_dot(a.a, rho.p)
    sb = row_dot(b.a, rho.p)
    within = (sa * sa <= a.norm2 * p2 + _NORM_SLACK) & (sb * sb <= b.norm2 * p2 + _NORM_SLACK)
    # a2*(p2-1) + dA2 == a2*p2 - sa^2 == |a ^ p|^2, evaluated in wedge
    # form to dodge the cancellation near coplanar states.
    root_a, radicand_a = _sqrt_radicand(_wedge_norm2(a.a, rho.p), "lhs")
    root_b, radicand_b = _sqrt_radicand(_wedge_norm2(b.a, rho.p), "lhs")
    # sa*sb == +-sqrt(a2-dA2) sqrt(b2-dB2); the sign implements the
    # fold-into-first-quadrant convention without touching the inputs.
    rhs = abs(sa * sb - row_dot(a.a, b.a) * p2)
    return root_a * root_b, rhs, [
        (within, NumericsError, "variance exceeds the squared coefficient norm"),
        radicand_a,
        radicand_b,
    ]


def _mixed_limit(a, b, rho) -> tuple:
    rm = array_of(rho.rho)
    va, checks_a = _variance_matrix(array_of(a.matrix), rm)
    vb, checks_b = _variance_matrix(array_of(b.matrix), rm)
    mixed = (rho.purity <= 1e-12, ValueError, "mixed-limit check requires the completely mixed state")
    return va + vb, a.norm2 + b.norm2, [mixed, *checks_a, *checks_b]


def _pure_limit(a, b, rho) -> tuple:
    sa = row_dot(a.a, rho.p)
    sb = row_dot(b.a, rho.p)
    # At |p| = 1 the variances are a2 - sa^2 = |a ^ p|^2 (wedge form,
    # stable near alignment).
    lhs = np.sqrt(_wedge_norm2(a.a, rho.p)) * np.sqrt(_wedge_norm2(b.a, rho.p))
    rhs = abs(sa * sb - row_dot(a.a, b.a))
    return lhs, rhs, [_pure(rho, ValueError, "pure-limit check requires |p|^2 = 1, got {}")]


def _axis_triple(theta_ab: float, rho) -> tuple:
    """The lhs, rhs and checks of the axis triple's equality at θ_ab, and
    its three variances [1 - u², 1 - v², 1 - w²] floored at 0, with
    u = a·p, v = b·p and w = c·p, on rows of states or one state."""
    u, y, w = components(rho.p)
    v = u * math.cos(theta_ab) + y * math.sin(theta_ab)
    da2, db2, dc2 = variances = (
        py_max(1.0 - u * u, 0.0), py_max(1.0 - v * v, 0.0), py_max(1.0 - w * w, 0.0)
    )
    sin2 = math.sin(theta_ab) ** 2
    lhs = da2 + db2 + dc2 * sin2 + 2.0 * math.cos(theta_ab) * u * v
    return lhs, 2.0, [
        _pure(rho, ValueError, "equality requires a pure state, got |p|^2 = {}"),
        (_within(theta_ab, math.pi), ValueError, "theta_ab = {} outside [0, pi]", theta_ab),
    ], variances


def _three_observable_equality(theta_ab: float, rho) -> tuple:
    return _axis_triple(theta_ab, rho)[:3]


def _unit_vector_relation(theta_ab, da2, db2) -> tuple:
    checks = [
        (_within(theta_ab, math.pi), ValueError, "theta_ab = {!r} outside [0, pi]", theta_ab),
        (_within(da2, 1.0), ValueError, "dA2 = {!r} outside [0, 1]", da2),
        (_within(db2, 1.0), ValueError, "dB2 = {!r} outside [0, 1]", db2),
    ]
    da2 = py_min(py_max(da2, 0.0), 1.0)
    db2 = py_min(py_max(db2, 0.0), 1.0)
    # np.cos on both shapes (see the linalg docstring).
    rhs = abs(np.sqrt((1.0 - da2) * (1.0 - db2)) - np.cos(theta_ab))
    return np.sqrt(da2 * db2), rhs, checks


def _effective_axis_angle(a, b, rho) -> tuple:
    # The folded axis angle, and the check that both norms are nonzero.
    norms = np.sqrt(a.norm2) * np.sqrt(b.norm2)
    defined = norms != 0.0
    cos_ab = py_min(1.0, py_max(-1.0, row_dot(a.a, b.a) / where(defined, norms, 1.0)))
    product = row_dot(a.a, rho.p) * row_dot(b.a, rho.p)
    theta = per_element(math.acos, where(product < 0.0, -cos_ab, cos_ab))
    return theta, (defined, UndefinedAngle, "axis angle undefined for a zero-norm observable")


def _unit_vector_state(a, b, rho) -> tuple:
    theta, defined = _effective_axis_angle(a, b, rho)
    # x**2 one element at a time: libm pow, as Python evaluates it.
    da2 = py_max(1.0 - per_element(lambda x: x**2, row_dot(a.a, rho.p)), 0.0)
    db2 = py_max(1.0 - per_element(lambda x: x**2, row_dot(b.a, rho.p)), 0.0)
    lhs, rhs, checks = _unit_vector_relation(theta, da2, db2)
    return lhs, rhs, [defined, *checks]


def _appendix_b(rho) -> tuple:
    rm = array_of(rho.rho)
    (vx, cx), (vy, cy), (vz, cz) = (
        _variance_matrix(axis.matrix.array, rm) for axis in _qubit_axes()
    )
    return vx + vy + vz, 3.0 - rho.purity, cx + cy + cz


def _zero_means(a, b, p) -> tuple:
    # Whether <A> = a.p and <B> = b.p vanish within ZERO_MEAN_TOL, and the
    # two means: of one sample's vectors or of rows (A and B's
    # coefficients or directions, the state's Bloch vector).
    mean_a, mean_b = row_dot(a, p), row_dot(b, p)
    return (abs(mean_a) <= ZERO_MEAN_TOL) & (abs(mean_b) <= ZERO_MEAN_TOL), mean_a, mean_b


def _appendix_c(a, b, rho, basis) -> tuple:
    n = basis.dim
    zero_means, mean_a, mean_b = _zero_means(a.a, b.a, rho.p)
    rm = array_of(rho.rho)
    va, checks_a = _variance_matrix(array_of(a.matrix), rm)
    vb, checks_b = _variance_matrix(array_of(b.matrix), rm)
    x = va - 2.0 * a.norm2 / n
    y = vb - 2.0 * b.norm2 / n
    x_vec = row_dot(a.a_prime, rho.p)
    y_vec = row_dot(b.a_prime, rho.p)
    routes = (abs(x - x_vec) <= _ROUTES_ATOL) & (abs(y - y_vec) <= _ROUTES_ATOL)
    # a'^2 p^2 - x^2 with x = a'.p is again a wedge norm; guaranteed
    # nonnegative and cancellation-free.  The matrix-route x, y feed the
    # right-hand side as stated.
    root_a, radicand_a = _sqrt_radicand(_wedge_norm2(a.a_prime, rho.p), "a'")
    root_b, radicand_b = _sqrt_radicand(_wedge_norm2(b.a_prime, rho.p), "b'")
    rhs = abs(x * y - row_dot(a.a_prime, b.a_prime) * rho.purity)
    return root_a * root_b, rhs, [
        (zero_means, ValueError, "trade-off requires zero means, got <A> = {}, <B> = {}",
         mean_a, mean_b),
        *checks_a,
        *checks_b,
        (routes, NumericsError, "shifted variances disagree between routes: {} vs {}, {} vs {}",
         x, x_vec, y, y_vec),
        radicand_a,
        radicand_b,
    ]


def _robertson(a, b, rho) -> tuple:
    am, bm, rm = array_of(a.matrix), array_of(b.matrix), array_of(rho.rho)
    va, checks_a = _variance_matrix(am, rm)
    vb, checks_b = _variance_matrix(bm, rm)
    comm = am @ bm
    comm -= bm @ am
    rhs = 0.5 * per_element(abs, np.einsum("...ab,...ba->...", comm, rm))
    return np.sqrt(va * vb), rhs, checks_a + checks_b


def _state_dependent(a, b, psi) -> tuple:
    # lhs, and rhs at + and at -.  ⟨ψ|M|φ⟩ is the dot of ψ's conjugate
    # with M times the column φ: one vector's dot and gemv, or a stack's.
    am, bm, rm = array_of(a.matrix), array_of(b.matrix), array_of(psi.rho)
    vecs = np.linalg.eigh(rm)[1]
    bra = vecs[..., :, -1].conj()
    comm_expect = row_dot(bra, ((am @ bm - bm @ am) @ vecs[..., :, -1:])[..., 0])
    va, checks_a = _variance_matrix(am, rm)
    vb, checks_b = _variance_matrix(bm, rm)
    rhs = []
    for sign in (1, -1):
        # (±i c).real is exact in any order (a product with 0, and ±Im c),
        # so numpy's complex product gives Python's bits; |z|² does not.
        amp = row_dot(bra, ((am + sign * 1j * bm) @ vecs[..., :, :1])[..., 0])
        rhs.append((sign * 1j * comm_expect).real + per_element(lambda z: abs(z) ** 2, amp))
    return va + vb, rhs, [
        _pure(psi, NotApplicable,
              "the bound needs a state orthogonal to the input, which no mixed state admits"),
        (abs(comm_expect.real) <= _REAL_COMMUTATOR_ATOL, NumericsError,
         "commutator expectation is not purely imaginary"),
        *checks_a,
        *checks_b,
    ]


def _scan_pair_point(A, B, rho, index) -> tuple:
    # ΔA², ΔB² and the theorem1 margin as lhs, against 0, and their
    # checks, the floor on the margin last.
    da2, checks_a = _variance_bloch(A, rho, 2)
    db2, checks_b = _variance_bloch(B, rho, 2)
    lhs, rhs, checks = _theorem1(A, B, rho)
    margin = lhs - rhs
    return (da2, db2, margin), 0.0, [
        *checks_a,
        *checks_b,
        *checks,
        (margin >= _SCAN_MARGIN_FLOOR, NumericsError,
         "sample {} violates the qubit bound: {}", index, margin),
    ]


def _scan_triple_point(theta_ab: float, rho, index) -> tuple:
    # The axis triple's three variances and the residual of its equality
    # as lhs, against 0, and their checks, the residual's bound last.
    lhs, rhs, checks, variances = _axis_triple(theta_ab, rho)
    residual = lhs - rhs
    return (*variances, residual), 0.0, [
        *checks,
        (abs(residual) <= _SURFACE_TOL, NumericsError,
         "sample {} misses the certainty surface: {}", index, residual),
    ]


# ---------------------------------------------------------------------------
# the scalar checkers


def check_triangle(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Triangle inequality on the unfolded angles θ_pa, θ_pb, θ_ab.

    Reports the binding side: lhs/rhs are chosen so the margin is the
    smaller of the two slacks.  Qubit states with |p| > 0 only.
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    return _scalar_verdict("triangle", _triangle(a, b, rho))


def check_theorem1(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """State-independent qubit bound for arbitrary observables.

    Works for any purity; the completely mixed state collapses it to
    ΔA² = a², ΔB² = b², and saturation occurs exactly when p is
    coplanar with the two coefficient vectors.
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    return _scalar_verdict("theorem1", _theorem1(a, b, rho))


def check_mixed_limit(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Completely mixed limit: both variances pin to the squared norms."""
    _require_qubit(a.dim, b.dim, rho.dim)
    return _scalar_verdict("mixed_limit", _mixed_limit(a, b, rho))


def check_pure_limit(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Pure-state form ΔAΔB >= |sqrt(a²-ΔA²) sqrt(b²-ΔB²) - g|."""
    _require_qubit(a.dim, b.dim, rho.dim)
    return _scalar_verdict("pure_limit", _pure_limit(a, b, rho))


def check_unit_vector_relation(theta_ab: float, da2: float, db2: float) -> RelationVerdict:
    """Scalar bound for unit observables at the given axis angle.

    Domain: variances in [0, 1], angle in [0, π].  For angles beyond
    π/2 callers should first fold (negate one observable), which maps
    θ_ab to π - θ_ab; ``effective_axis_angle`` does this per state.
    Out-of-domain input raises ``ValueError``; an infinite angle first
    draws numpy's "invalid value encountered in cos" ``RuntimeWarning``.
    """
    return _scalar_verdict("unit_vector", _unit_vector_relation(theta_ab, da2, db2))


def check_three_observable_equality(theta_ab: float, rho: QuantumState) -> RelationVerdict:
    """Exact three-variance constraint for the axis triple on pure states.

    Uses a = x, b = x cosθ_ab + y sinθ_ab, c = z.  The cross term
    carries the sign of (a·p)(b·p): the identity is stated with folded
    angles, and folding one observable flips cos θ_ab in step with the
    cosine product, so the signed product evaluates the folded identity
    for every pure state.  The verdict compares against 2; ``saturated``
    is the meaningful flag for this equality.
    """
    _require_qubit(rho.dim)
    return _scalar_verdict("three_obs_equality", _three_observable_equality(theta_ab, rho))


def check_appendix_b(rho: QuantumState) -> RelationVerdict:
    """Sum of the three axis variances equals 3 - |p|² for any qubit state."""
    _require_qubit(rho.dim)
    return _scalar_verdict("appendix_b", _appendix_b(rho))


def check_appendix_c(
    a: Observable, b: Observable, rho: QuantumState, basis: GeneratorBasis
) -> RelationVerdict:
    """N-dimensional trade-off under ⟨A⟩ = ⟨B⟩ = 0.

    The means must vanish within ``ZERO_MEAN_TOL`` (1e-9).  Builds the
    shifted variances x, y, verifies them against the contracted-vector
    route a'·p (the two must agree to 1e-11 or the inputs are
    inconsistent), and checks
    sqrt(a'²p² - x²) sqrt(b'²p² - y²) >= |x y - g' p²| at tolerance
    1e-9.
    """
    if a.dim != b.dim or a.dim != rho.dim or basis.dim != a.dim:
        raise DimensionMismatch("observables, state, and basis must share one dimension")
    return _scalar_verdict("appendix_c", _appendix_c(a, b, rho, basis), APPENDIX_C_TOL)


def robertson_bound(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Commutator baseline ΔAΔB >= |⟨[A, B]⟩| / 2, any dimension."""
    if a.dim != b.dim or a.dim != rho.dim:
        raise DimensionMismatch("operands must share one dimension")
    return _scalar_verdict("robertson", _robertson(a, b, rho))


def state_dependent_bound(
    a: Observable, b: Observable, psi: QuantumState
) -> tuple[RelationVerdict, RelationVerdict]:
    """Sum-of-variances bound requiring the orthogonal pure state, at
    both signs: the verdicts for + and for -, in that order.

    Only defined for pure qubit states, where the orthogonal state is
    unique up to phase (the modulus removes the phase).  Mixed input
    raises :class:`NotApplicable`: no single state is orthogonal to every
    component of a mixture.
    """
    _require_qubit(a.dim, b.dim, psi.dim)
    lhs, (plus, minus), checks = _state_dependent(a, b, psi)
    raise_first(checks)
    lhs = float(lhs)
    return _verdict("state_dependent", lhs, plus), _verdict("state_dependent", lhs, minus)


def effective_axis_angle(a: Observable, b: Observable, rho: QuantumState) -> float:
    """Axis angle in the fold convention fixed by the state.

    Negating one observable makes both state cosines nonnegative and
    flips θ_ab to π - θ_ab when the cosines had opposite signs; the
    returned angle is the one under which the scalar unit-vector bound
    matches the signed qubit bound margin for this state.  Qubit
    operands only: the fold and the unit-vector bound it serves are
    qubit results.  A zero-norm observable raises ``UndefinedAngle``.
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    theta, defined = _effective_axis_angle(a, b, rho)
    raise_first([defined])
    return theta


def check_unit_vector_state(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """The unit-vector relation on ``rho``'s variances and ``effective_axis_angle``.

    Qubit operands only: at N > 2 the variance of a unit observable is
    not 1 - (a·p)².
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    return _scalar_verdict("unit_vector", _unit_vector_state(a, b, rho))


def scan_pair_point(A: Observable, B: Observable, rho: QuantumState, index: int) -> tuple:
    """One sample of a pair scan: (ΔA², ΔB², theorem1 margin) of ``rho``.

    Qubit operands only (``variance_bloch`` on the qubit basis refuses
    others).  A margin below ``_SCAN_MARGIN_FLOOR`` (-1e-9), NaN
    included, raises ``NumericsError`` naming sample ``index``.
    """
    for obs in (A, B):
        _check_bloch_dims(obs, rho, basis_for(2))
    return _scalar_values(_scan_pair_point(A, B, rho, index))


def scan_triple_point(theta_ab: float, rho: QuantumState, index: int) -> tuple:
    """One sample of a triple scan: (ΔA², ΔB², ΔC², residual) of the
    axis triple at θ_ab (see ``check_three_observable_equality``).

    A residual beyond ``_SURFACE_TOL`` (1e-9), NaN included, raises
    ``NumericsError`` naming sample ``index``.
    """
    _require_qubit(rho.dim)
    return _scalar_values(_scan_triple_point(theta_ab, rho, index))


def db_span_given_da2(theta_ab: float, da2: float) -> tuple[float, float]:
    """Feasible ΔB interval for unit observables once ΔA² is known.

    Solves the scalar unit-vector bound for ΔB at fixed ΔA²: with
    θ_x = asin(ΔA) the boundary roots are sqrt(1-ΔB²) =
    cos(θ_x ∓ θ_ab), so the interval is
    [|sin(θ_x - θ_ab)|, sin(θ_x + θ_ab)] with the upper end clipped at
    1 once θ_x + θ_ab passes π/2.  The angle form avoids the
    square-root cancellation at the endpoints.  Angle must already be
    folded into [0, π/2].
    """
    if not _within(theta_ab, math.pi / 2.0):
        raise ValueError("fold theta_ab into [0, pi/2] first")
    if not _within(da2, 1.0):
        raise ValueError(f"dA2 = {da2!r} outside [0, 1]")
    da2 = min(max(da2, 0.0), 1.0)
    theta_x = math.asin(math.sqrt(da2))
    lo = abs(math.sin(theta_x - theta_ab))
    if theta_x + theta_ab >= math.pi / 2.0:
        hi = 1.0
    else:
        hi = math.sin(theta_x + theta_ab)
    return lo, hi


def db_span_any_state(theta_ab: float) -> tuple[float, float]:
    """ΔB values attainable over all pure states at the given axis angle.

    Projects the feasible (ΔA, ΔB) region onto the ΔB axis by sweeping
    ΔA² over 2001 evenly spaced points of [0, 1], plus the critical points
    ΔA² ∈ {0, sin²θ, 1} where the conditional interval touches its
    extremes.
    """
    sn = math.sin(theta_ab)
    probes = np.linspace(0.0, 1.0, 2001).tolist() + [sn * sn, 0.0, 1.0]
    lo = math.inf
    hi = -math.inf
    for da2 in probes:
        a, b = db_span_given_da2(theta_ab, da2)
        lo = min(lo, a)
        hi = max(hi, b)
    return lo, hi

