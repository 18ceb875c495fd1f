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
    states, the state-dependent comparison baseline.

Sign convention
---------------
Negating an observable leaves every variance unchanged but flips both
its dot with p and its overlap g with the partner observable, so the
square-root bounds above are stated in the convention where the state
cosines are nonnegative (angles folded into [0, π/2]).  Evaluating the
product of square roots with the sign of (a·p)(b·p) attached is exactly
equivalent to folding and works for every input, so that is what the
checkers do.

Lanes forms
-----------
Each checker the CLI fuzzes has a ``*_batch`` form over
``StateBatch``/``ObservableBatch`` rows, at every N the checker is
defined for.  It returns ``(margins, bad)``: the margin of row i equals,
bit for bit, the scalar verdict's margin on row i's objects, and ``bad``
marks rows where an input was bad or where a check of the scalar checker
fails (at the same tolerance).  Their verdicts use the scalar checker's
tolerance (``HOLDS_TOL``, or ``APPENDIX_C_TOL`` for appendix-c) and
``SATURATION_TOL``, as ``_verdict`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import Observable, ObservableBatch, QuantumState, StateBatch, observable_from_bloch
from .errors import DimensionMismatch, NotApplicable, NumericsError
from .linalg import per_element, py_max, py_min, row_dot
from .sun_basis import GeneratorBasis, basis_for
from .variance import angles, angles_batch, variance_matrix, variance_matrix_batch

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
    "effective_axis_angle",
    "db_span_given_da2",
    "db_span_any_state",
    "check_triangle_batch",
    "check_theorem1_batch",
    "check_mixed_limit_batch",
    "check_pure_limit_batch",
    "check_unit_vector_relation_batch",
    "check_three_observable_equality_batch",
    "check_appendix_b_batch",
    "check_appendix_c_batch",
    "robertson_bound_batch",
    "state_dependent_bound_batch",
    "effective_axis_angle_batch",
]

HOLDS_TOL = 1e-10
APPENDIX_C_TOL = 1e-9
SATURATION_TOL = 1e-9
# Largest |<A>| and |<B>| the appendix-c trade-off accepts as zero; the
# CLI's rejection draws accept exactly the tries that pass this check.
ZERO_MEAN_TOL = 1e-9
_RADICAND_FLOOR = -1e-10


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
    margin = lhs - rhs
    return RelationVerdict(
        relation_id=relation_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tol,
        saturated=abs(margin) <= SATURATION_TOL,
        tolerance=tol,
    )


def _require_qubit(*dims: int) -> None:
    for d in dims:
        if d != 2:
            raise DimensionMismatch(f"this relation is defined for qubits only, got dim {d}")


def _sqrt_checked(value: float, what: str) -> float:
    if value < _RADICAND_FLOOR:
        raise NumericsError(f"{what} radicand {value!r} negative beyond round-off")
    return math.sqrt(max(value, 0.0))


def _wedge_norm2(u: np.ndarray, v: np.ndarray) -> float:
    """|u|²|v|² - (u·v)² via the Lagrange identity.

    The direct difference cancels catastrophically when u and v are
    nearly parallel, and the square roots downstream amplify that noise
    to ~1e-8 near saturation; the wedge form is a sum of squares, so it
    is exact to relative round-off and nonnegative by construction.
    """
    outer = np.outer(u, v)
    diff = outer - outer.T
    return 0.5 * float(np.einsum("ij,ij->", diff, diff))


_QUBIT_AXES: tuple[Observable, ...] | None = None


def _qubit_axes() -> tuple[Observable, ...]:
    global _QUBIT_AXES
    if _QUBIT_AXES is None:
        basis = basis_for(2)
        _QUBIT_AXES = tuple(
            observable_from_bloch(np.eye(3)[i], basis) for i in range(3)
        )
    return _QUBIT_AXES


def check_triangle(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Triangle inequality on the unfolded angles θ_pa, θ_pb, θ_ab.

    Reports the binding side: lhs/rhs are chosen so the margin is the
    smaller of the two slacks.  Qubit states with |p| > 0 only.
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    ang = angles(a, b, rho, fold=False)
    upper_slack = ang.theta_pa + ang.theta_pb - ang.theta_ab
    lower_slack = ang.theta_ab - abs(ang.theta_pa - ang.theta_pb)
    if upper_slack <= lower_slack:
        return _verdict("triangle", ang.theta_pa + ang.theta_pb, ang.theta_ab)
    return _verdict("triangle", ang.theta_ab, abs(ang.theta_pa - ang.theta_pb))


def check_theorem1(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """State-independent qubit bound for arbitrary observables.

    Works for any purity; the completely mixed state collapses it to
    ΔA² = a², ΔB² = b², and saturation occurs exactly when p is
    coplanar with the two coefficient vectors.
    """
    _require_qubit(a.dim, b.dim, rho.dim)
    a2 = a.norm2
    b2 = b.norm2
    p2 = rho.purity
    sa = float(a.a @ rho.p)
    sb = float(b.a @ rho.p)
    if sa * sa > a2 * p2 + 1e-10 or sb * sb > b2 * p2 + 1e-10:
        raise NumericsError("variance exceeds the squared coefficient norm")
    # a2*(p2-1) + dA2 == a2*p2 - sa^2 == |a ^ p|^2, evaluated in wedge
    # form to dodge the cancellation near coplanar states.
    lhs = _sqrt_checked(_wedge_norm2(a.a, rho.p), "lhs") * _sqrt_checked(
        _wedge_norm2(b.a, rho.p), "lhs"
    )
    g = float(a.a @ b.a)
    # sa*sb == +-sqrt(a2-dA2) sqrt(b2-dB2); the sign implements the
    # fold-into-first-quadrant convention without touching the inputs.
    rhs = abs(sa * sb - g * p2)
    return _verdict("theorem1", lhs, rhs)


def check_mixed_limit(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Completely mixed limit: both variances pin to the squared norms."""
    _require_qubit(a.dim, b.dim, rho.dim)
    if rho.purity > 1e-12:
        raise ValueError("mixed-limit check requires the completely mixed state")
    lhs = variance_matrix(a, rho) + variance_matrix(b, rho)
    rhs = a.norm2 + b.norm2
    return _verdict("mixed_limit", lhs, rhs)


def check_pure_limit(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Pure-state form ΔAΔB >= |sqrt(a²-ΔA²) sqrt(b²-ΔB²) - g|."""
    _require_qubit(a.dim, b.dim, rho.dim)
    if abs(rho.purity - 1.0) > 1e-9:
        raise ValueError(f"pure-limit check requires |p|^2 = 1, got {rho.purity!r}")
    sa = float(a.a @ rho.p)
    sb = float(b.a @ rho.p)
    # At |p| = 1 the variances are a2 - sa^2 = |a ^ p|^2 (wedge form,
    # stable near alignment).
    lhs = math.sqrt(_wedge_norm2(a.a, rho.p)) * math.sqrt(_wedge_norm2(b.a, rho.p))
    rhs = abs(sa * sb - float(a.a @ b.a))
    return _verdict("pure_limit", lhs, rhs)


def check_unit_vector_relation(theta_ab: float, da2: float, db2: float) -> RelationVerdict:
    """Scalar bound for unit observables at the given axis angle.

    Domain: variances in [0, 1], angle in [0, π].  For angles beyond
    π/2 callers should first fold (negate one observable), which maps
    θ_ab to π - θ_ab; ``effective_axis_angle`` does this per state.
    """
    if not -1e-12 <= theta_ab <= math.pi + 1e-12:
        raise ValueError(f"theta_ab = {theta_ab!r} outside [0, pi]")
    for name, value in (("dA2", da2), ("dB2", db2)):
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ValueError(f"{name} = {value!r} outside [0, 1]")
    da2 = min(max(da2, 0.0), 1.0)
    db2 = min(max(db2, 0.0), 1.0)
    lhs = math.sqrt(da2 * db2)
    rhs = abs(math.sqrt((1.0 - da2) * (1.0 - db2)) - math.cos(theta_ab))
    return _verdict("unit_vector", lhs, rhs)


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
    if abs(rho.purity - 1.0) > 1e-9:
        raise ValueError(f"equality requires a pure state, got |p|^2 = {rho.purity!r}")
    if not -1e-12 <= theta_ab <= math.pi + 1e-12:
        raise ValueError(f"theta_ab = {theta_ab!r} outside [0, pi]")
    p = rho.p
    u = float(p[0])
    v = float(p[0] * math.cos(theta_ab) + p[1] * math.sin(theta_ab))
    w = float(p[2])
    da2 = max(1.0 - u * u, 0.0)
    db2 = max(1.0 - v * v, 0.0)
    dc2 = max(1.0 - w * w, 0.0)
    sin2 = math.sin(theta_ab) ** 2
    lhs = da2 + db2 + dc2 * sin2 + 2.0 * math.cos(theta_ab) * u * v
    return _verdict("three_obs_equality", lhs, 2.0)


def check_appendix_b(rho: QuantumState) -> RelationVerdict:
    """Sum of the three axis variances equals 3 - |p|² for any qubit state."""
    _require_qubit(rho.dim)
    x, y, z = _qubit_axes()
    lhs = variance_matrix(x, rho) + variance_matrix(y, rho) + variance_matrix(z, rho)
    return _verdict("appendix_b", lhs, 3.0 - rho.purity)


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
    mean_a = float(a.a @ rho.p)
    mean_b = float(b.a @ rho.p)
    if abs(mean_a) > ZERO_MEAN_TOL or abs(mean_b) > ZERO_MEAN_TOL:
        raise ValueError(
            f"trade-off requires zero means, got <A> = {mean_a!r}, <B> = {mean_b!r}"
        )
    n = a.dim
    x = variance_matrix(a, rho) - 2.0 * a.norm2 / n
    y = variance_matrix(b, rho) - 2.0 * b.norm2 / n
    x_vec = float(a.a_prime @ rho.p)
    y_vec = float(b.a_prime @ rho.p)
    if abs(x - x_vec) > 1e-11 or abs(y - y_vec) > 1e-11:
        raise NumericsError(
            f"shifted variances disagree between routes: {x!r} vs {x_vec!r}, "
            f"{y!r} vs {y_vec!r}"
        )
    g_prime = float(a.a_prime @ b.a_prime)
    # a'^2 p^2 - x^2 with x = a'.p is again a wedge norm; guaranteed
    # nonnegative and cancellation-free.  The matrix-route x, y feed the
    # right-hand side as stated.
    lhs = _sqrt_checked(_wedge_norm2(a.a_prime, rho.p), "a'") * _sqrt_checked(
        _wedge_norm2(b.a_prime, rho.p), "b'"
    )
    rhs = abs(x * y - g_prime * rho.purity)
    return _verdict("appendix_c", lhs, rhs, tol=APPENDIX_C_TOL)


def robertson_bound(a: Observable, b: Observable, rho: QuantumState) -> RelationVerdict:
    """Commutator baseline ΔAΔB >= |⟨[A, B]⟩| / 2, any dimension."""
    if a.dim != b.dim or a.dim != rho.dim:
        raise DimensionMismatch("operands must share one dimension")
    lhs = math.sqrt(variance_matrix(a, rho) * variance_matrix(b, rho))
    comm = a.matrix.array @ b.matrix.array - b.matrix.array @ a.matrix.array
    rhs = 0.5 * abs(complex(np.einsum("ab,ba->", comm, rho.rho.array)))
    return _verdict("robertson", lhs, rhs)


def state_dependent_bound(
    a: Observable, b: Observable, psi: QuantumState, sign: int
) -> RelationVerdict:
    """Sum-of-variances bound requiring the orthogonal pure state.

    Only defined for pure qubit states, where the orthogonal state is
    unique up to phase (the modulus removes the phase).  Mixed input
    raises :class:`NotApplicable`: no single state is orthogonal to every
    component of a mixture.
    """
    _require_qubit(a.dim, b.dim, psi.dim)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if abs(psi.purity - 1.0) > 1e-9:
        raise NotApplicable(
            "the bound needs a state orthogonal to the input, which no mixed "
            "state admits"
        )
    w, vecs = np.linalg.eigh(psi.rho.array)
    ket = vecs[:, -1]
    ket_perp = vecs[:, 0]
    am = a.matrix.array
    bm = b.matrix.array
    comm_expect = complex(ket.conj() @ ((am @ bm - bm @ am) @ ket))
    if abs(comm_expect.real) > 1e-10:
        raise NumericsError("commutator expectation is not purely imaginary")
    term1 = (sign * 1j * comm_expect).real
    amp = complex(ket.conj() @ ((am + sign * 1j * bm) @ ket_perp))
    lhs = variance_matrix(a, psi) + variance_matrix(b, psi)
    rhs = term1 + abs(amp) ** 2
    return _verdict("state_dependent", lhs, rhs)


def effective_axis_angle(a: Observable, b: Observable, rho: QuantumState) -> float:
    """Axis angle in the fold convention fixed by the state.

    Negating one observable makes both state cosines nonnegative and
    flips θ_ab to π - θ_ab when the cosines had opposite signs; the
    returned angle is the one under which the scalar unit-vector bound
    matches the signed qubit bound margin for this state.
    """
    na = math.sqrt(a.norm2)
    nb = math.sqrt(b.norm2)
    cos_ab = float(a.a @ b.a) / (na * nb)
    cos_ab = min(1.0, max(-1.0, cos_ab))
    product = float(a.a @ rho.p) * float(b.a @ rho.p)
    if product < 0.0:
        cos_ab = -cos_ab
    return math.acos(cos_ab)


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
    if not -1e-12 <= theta_ab <= math.pi / 2.0 + 1e-12:
        raise ValueError("fold theta_ab into [0, pi/2] first")
    if not -1e-12 <= da2 <= 1.0 + 1e-12:
        raise ValueError(f"dA2 = {da2!r} outside [0, 1]")
    da2 = min(max(da2, 0.0), 1.0)
    theta_x = math.asin(math.sqrt(da2))
    lo = abs(math.sin(theta_x - theta_ab))
    if theta_x + theta_ab >= math.pi / 2.0:
        hi = 1.0
    else:
        hi = math.sin(theta_x + theta_ab)
    return lo, hi


def db_span_any_state(theta_ab: float, n_grid: int = 2001) -> tuple[float, float]:
    """ΔB values attainable over all pure states at the given axis angle.

    Projects the feasible (ΔA, ΔB) region onto the ΔB axis by sweeping
    ΔA², including the critical points ΔA² ∈ {0, sin²θ, 1} where the
    conditional interval touches its extremes.
    """
    sn = math.sin(theta_ab)
    probes = np.linspace(0.0, 1.0, n_grid).tolist() + [sn * sn, 0.0, 1.0]
    lo = math.inf
    hi = -math.inf
    for da2 in probes:
        a, b = db_span_given_da2(theta_ab, da2)
        lo = min(lo, a)
        hi = max(hi, b)
    return lo, hi


# ---------------------------------------------------------------------------
# lanes forms (see the module docstring)


_LaneVerdicts = tuple[np.ndarray, np.ndarray]  # (margins, bad)


def _wedge_norm2_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    outer = u[:, :, None] * v[:, None, :]
    diff = outer - outer.swapaxes(1, 2)
    return 0.5 * np.einsum("nij,nij->n", diff, diff)


def _sqrt_checked_batch(value: np.ndarray, bad: np.ndarray) -> np.ndarray:
    bad |= value < _RADICAND_FLOOR
    return np.sqrt(py_max(value, 0.0))


def _outside(value, lo: float, hi: float) -> np.ndarray:
    # The negation of lo <= value <= hi, so NaN counts as outside.
    return ~((lo <= value) & (value <= hi))


def check_triangle_batch(a: ObservableBatch, b: ObservableBatch, rho: StateBatch) -> _LaneVerdicts:
    """Lanes form of ``check_triangle``."""
    theta_pa, theta_pb, theta_ab, bad = angles_batch(a, b, rho)
    upper_slack = theta_pa + theta_pb - theta_ab
    lower_slack = theta_ab - np.abs(theta_pa - theta_pb)
    margins = np.where(upper_slack <= lower_slack, upper_slack, lower_slack)
    return margins, bad | a.bad | b.bad | rho.bad


def check_theorem1_batch(a: ObservableBatch, b: ObservableBatch, rho: StateBatch) -> _LaneVerdicts:
    """Lanes form of ``check_theorem1``."""
    bad = a.bad | b.bad | rho.bad
    p2 = rho.purity
    sa = row_dot(a.a, rho.p)
    sb = row_dot(b.a, rho.p)
    bad |= (sa * sa > a.norm2 * p2 + 1e-10) | (sb * sb > b.norm2 * p2 + 1e-10)
    lhs = _sqrt_checked_batch(_wedge_norm2_batch(a.a, rho.p), bad)
    lhs = lhs * _sqrt_checked_batch(_wedge_norm2_batch(b.a, rho.p), bad)
    rhs = np.abs(sa * sb - row_dot(a.a, b.a) * p2)
    return lhs - rhs, bad


def check_mixed_limit_batch(
    a: ObservableBatch, b: ObservableBatch, rho: StateBatch
) -> _LaneVerdicts:
    """Lanes form of ``check_mixed_limit``."""
    va, bad_a = variance_matrix_batch(a.matrix, rho.rho)
    vb, bad_b = variance_matrix_batch(b.matrix, rho.rho)
    bad = a.bad | b.bad | rho.bad | (rho.purity > 1e-12) | bad_a | bad_b
    return (va + vb) - (a.norm2 + b.norm2), bad


def check_pure_limit_batch(
    a: ObservableBatch, b: ObservableBatch, rho: StateBatch
) -> _LaneVerdicts:
    """Lanes form of ``check_pure_limit``."""
    bad = a.bad | b.bad | rho.bad | (np.abs(rho.purity - 1.0) > 1e-9)
    sa = row_dot(a.a, rho.p)
    sb = row_dot(b.a, rho.p)
    lhs = np.sqrt(_wedge_norm2_batch(a.a, rho.p)) * np.sqrt(_wedge_norm2_batch(b.a, rho.p))
    rhs = np.abs(sa * sb - row_dot(a.a, b.a))
    return lhs - rhs, bad


def check_unit_vector_relation_batch(
    theta_ab: np.ndarray, da2: np.ndarray, db2: np.ndarray
) -> _LaneVerdicts:
    """Lanes form of ``check_unit_vector_relation``."""
    bad = _outside(theta_ab, -1e-12, math.pi + 1e-12)
    bad |= _outside(da2, -1e-12, 1.0 + 1e-12) | _outside(db2, -1e-12, 1.0 + 1e-12)
    da2 = py_min(py_max(da2, 0.0), 1.0)
    db2 = py_min(py_max(db2, 0.0), 1.0)
    lhs = np.sqrt(da2 * db2)
    rhs = np.abs(np.sqrt((1.0 - da2) * (1.0 - db2)) - np.cos(theta_ab))
    return lhs - rhs, bad


def check_three_observable_equality_batch(theta_ab: float, rho: StateBatch) -> _LaneVerdicts:
    """Lanes form of ``check_three_observable_equality``."""
    bad = rho.bad | (np.abs(rho.purity - 1.0) > 1e-9)
    if not -1e-12 <= theta_ab <= math.pi + 1e-12:
        bad[:] = True
    p = rho.p
    u = p[:, 0]
    v = p[:, 0] * math.cos(theta_ab) + p[:, 1] * math.sin(theta_ab)
    w = p[:, 2]
    da2 = py_max(1.0 - u * u, 0.0)
    db2 = py_max(1.0 - v * v, 0.0)
    dc2 = py_max(1.0 - w * w, 0.0)
    sin2 = math.sin(theta_ab) ** 2
    lhs = da2 + db2 + dc2 * sin2 + 2.0 * math.cos(theta_ab) * u * v
    return lhs - 2.0, bad


def check_appendix_b_batch(rho: StateBatch) -> _LaneVerdicts:
    """Lanes form of ``check_appendix_b``."""
    (vx, bad_x), (vy, bad_y), (vz, bad_z) = (
        variance_matrix_batch(np.broadcast_to(axis.matrix.array, rho.rho.shape), rho.rho)
        for axis in _qubit_axes()
    )
    return vx + vy + vz - (3.0 - rho.purity), rho.bad | bad_x | bad_y | bad_z


def check_appendix_c_batch(
    a: ObservableBatch, b: ObservableBatch, rho: StateBatch
) -> _LaneVerdicts:
    """Lanes form of ``check_appendix_c``."""
    bad = a.bad | b.bad | rho.bad
    bad |= np.abs(row_dot(a.a, rho.p)) > ZERO_MEAN_TOL
    bad |= np.abs(row_dot(b.a, rho.p)) > ZERO_MEAN_TOL
    n = rho.rho.shape[1]
    va, bad_a = variance_matrix_batch(a.matrix, rho.rho)
    vb, bad_b = variance_matrix_batch(b.matrix, rho.rho)
    x = va - 2.0 * a.norm2 / n
    y = vb - 2.0 * b.norm2 / n
    bad |= bad_a | bad_b
    bad |= np.abs(x - row_dot(a.a_prime, rho.p)) > 1e-11
    bad |= np.abs(y - row_dot(b.a_prime, rho.p)) > 1e-11
    # _wedge_norm2 row by row: the stacked einsum sums in another order
    # at N = 10.
    wedge_a = np.array([_wedge_norm2(u, p) for u, p in zip(a.a_prime, rho.p)])
    wedge_b = np.array([_wedge_norm2(u, p) for u, p in zip(b.a_prime, rho.p)])
    lhs = _sqrt_checked_batch(wedge_a, bad) * _sqrt_checked_batch(wedge_b, bad)
    rhs = np.abs(x * y - row_dot(a.a_prime, b.a_prime) * rho.purity)
    return lhs - rhs, bad


def robertson_bound_batch(a: ObservableBatch, b: ObservableBatch, rho: StateBatch) -> _LaneVerdicts:
    """Lanes form of ``robertson_bound``, any dimension."""
    va, bad_a = variance_matrix_batch(a.matrix, rho.rho)
    vb, bad_b = variance_matrix_batch(b.matrix, rho.rho)
    lhs = np.sqrt(va * vb)
    comm = a.matrix @ b.matrix
    comm -= b.matrix @ a.matrix
    rhs = 0.5 * per_element(abs, np.einsum("nab,nba->n", comm, rho.rho))
    return lhs - rhs, a.bad | b.bad | rho.bad | bad_a | bad_b


def state_dependent_bound_batch(
    a: ObservableBatch, b: ObservableBatch, psi: StateBatch, sign: int
) -> _LaneVerdicts:
    """Lanes form of ``state_dependent_bound``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    bad = a.bad | b.bad | psi.bad | (np.abs(psi.purity - 1.0) > 1e-9)
    vecs = np.linalg.eigh(psi.rho)[1]
    ket = vecs[:, :, -1:]
    bra = ket.conj().swapaxes(1, 2)
    am = a.matrix
    bm = b.matrix
    comm_expect = (bra @ ((am @ bm - bm @ am) @ ket))[:, 0, 0]
    bad |= np.abs(comm_expect.real) > 1e-10
    term1 = per_element(lambda c: (sign * 1j * c).real, comm_expect)
    amp = (bra @ ((am + sign * 1j * bm) @ vecs[:, :, :1]))[:, 0, 0]
    va, bad_a = variance_matrix_batch(am, psi.rho)
    vb, bad_b = variance_matrix_batch(bm, psi.rho)
    rhs = term1 + per_element(lambda c: abs(c) ** 2, amp)
    return (va + vb) - rhs, bad | bad_a | bad_b


def effective_axis_angle_batch(
    a: ObservableBatch, b: ObservableBatch, rho: StateBatch
) -> np.ndarray:
    """Lanes form of ``effective_axis_angle``."""
    cos_ab = row_dot(a.a, b.a) / (np.sqrt(a.norm2) * np.sqrt(b.norm2))
    cos_ab = py_min(1.0, py_max(-1.0, cos_ab))
    product = row_dot(a.a, rho.p) * row_dot(b.a, rho.p)
    return per_element(math.acos, np.where(product < 0.0, -cos_ab, cos_ab))
