import dataclasses
import math

import numpy as np
import pytest

from blochvar import (
    DimensionMismatch,
    HermitianMatrix,
    NotApplicable,
    UnphysicalState,
    Xoshiro256pp,
    basis_for,
    check_appendix_b,
    check_appendix_c,
    check_mixed_limit,
    check_pure_limit,
    check_theorem1,
    check_three_observable_equality,
    check_triangle,
    check_unit_vector_relation,
    completely_mixed,
    db_span_any_state,
    db_span_given_da2,
    draw_mixed,
    draw_observable,
    draw_pure,
    effective_axis_angle,
    observable_from_bloch,
    relations,
    robertson_bound,
    state_dependent_bound,
    state_from_matrix,
    state_to_matrix,
    variance_matrix,
)


def _unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# triangle


def test_triangle_state_parallel_to_a(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch(_unit([1.0, 1.0, 0]), basis2)
    state = state_to_matrix([0.7, 0.0, 0.0], basis2)
    verdict = check_triangle(a, b, state)
    # theta_pa = 0 collapses both bounds onto theta_ab = theta_pb.
    assert verdict.holds and verdict.saturated


def test_triangle_coplanar_saturates(basis2):
    # Planar construction: placing p inside the angular sector between a
    # and b saturates the upper bound; on one side, the lower bound.
    rng = np.random.default_rng(2)
    for _ in range(30):
        alpha, beta = rng.uniform(0.0, math.pi / 2, size=2)
        phi_p = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.1, 1.0)
        state = state_to_matrix(
            [radius * math.cos(phi_p), radius * math.sin(phi_p), 0.0], basis2
        )
        a = observable_from_bloch(
            [math.cos(phi_p - alpha), math.sin(phi_p - alpha), 0.0], basis2
        )
        inside = observable_from_bloch(
            [math.cos(phi_p + beta), math.sin(phi_p + beta), 0.0], basis2
        )
        verdict = check_triangle(a, inside, state)
        assert verdict.holds and abs(verdict.margin) <= 1e-10
        outside = observable_from_bloch(
            [math.cos(phi_p - beta), math.sin(phi_p - beta), 0.0], basis2
        )
        verdict = check_triangle(a, outside, state)
        assert verdict.holds and abs(verdict.margin) <= 1e-10


def test_triangle_coplanar_general_cases(basis2):
    # Generic coplanar triples either saturate a bound or wrap the circle
    # (the three pairwise angles then sum to 2*pi); both satisfy the
    # inequality.
    rng = np.random.default_rng(5)
    from blochvar import angles

    for _ in range(50):
        phi_a, phi_b, phi_p = rng.uniform(0, 2 * math.pi, size=3)
        a = observable_from_bloch([math.cos(phi_a), math.sin(phi_a), 0.0], basis2)
        b = observable_from_bloch([math.cos(phi_b), math.sin(phi_b), 0.0], basis2)
        state = state_to_matrix([0.9 * math.cos(phi_p), 0.9 * math.sin(phi_p), 0.0], basis2)
        assert check_triangle(a, b, state).holds
        ang = angles(a, b, state)
        ways = (
            abs(ang.theta_ab - (ang.theta_pa + ang.theta_pb)),
            abs(ang.theta_ab - abs(ang.theta_pa - ang.theta_pb)),
            abs(ang.theta_pa + ang.theta_pb + ang.theta_ab - 2 * math.pi),
        )
        assert min(ways) <= 1e-10


def test_triangle_fuzz(basis2):
    worst = math.inf
    for i in range(3000):
        rng = Xoshiro256pp(101, stream=i)
        state = draw_pure(rng, basis2) if i % 2 == 0 else draw_mixed(rng, basis2)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        worst = min(worst, check_triangle(a, b, state).margin)
    assert worst >= -1e-10


def test_triangle_rejects_higher_dims(basis3):
    a = observable_from_bloch(np.eye(8)[0], basis3)
    b = observable_from_bloch(np.eye(8)[1], basis3)
    state = completely_mixed(basis3)
    with pytest.raises(DimensionMismatch):
        check_triangle(a, b, state)


# ---------------------------------------------------------------------------
# qubit bound (theorem1) and its limits


def test_theorem1_completely_mixed_pins_variances(basis2):
    rng = Xoshiro256pp(4)
    a = observable_from_bloch(rng.gaussians(basis2.n_generators), basis2)
    b = observable_from_bloch(rng.gaussians(basis2.n_generators), basis2)
    mixed = completely_mixed(basis2)
    verdict = check_mixed_limit(a, b, mixed)
    assert verdict.holds and abs(verdict.margin) <= 1e-12
    assert variance_matrix(a, mixed) == pytest.approx(a.norm2, abs=1e-12)
    assert variance_matrix(b, mixed) == pytest.approx(b.norm2, abs=1e-12)
    t1 = check_theorem1(a, b, mixed)
    assert t1.holds and t1.saturated


def test_theorem1_coplanar_saturation_any_purity(basis2):
    rng = np.random.default_rng(8)
    for _ in range(40):
        phi_a, phi_b, phi_p = rng.uniform(0, 2 * math.pi, size=3)
        radius = rng.uniform(0.05, 1.0)
        a = observable_from_bloch([math.cos(phi_a), math.sin(phi_a), 0.0], basis2)
        b = observable_from_bloch([math.cos(phi_b), math.sin(phi_b), 0.0], basis2)
        state = state_to_matrix(
            [radius * math.cos(phi_p), radius * math.sin(phi_p), 0.0], basis2
        )
        verdict = check_theorem1(a, b, state)
        assert verdict.holds
        assert abs(verdict.margin) <= 1e-10


def test_theorem1_fuzz_mixed_and_pure(basis2):
    worst = math.inf
    for i in range(20000):
        rng = Xoshiro256pp(7, stream=i)
        state = draw_pure(rng, basis2) if i % 2 == 0 else draw_mixed(rng, basis2)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        worst = min(worst, check_theorem1(a, b, state).margin)
    assert worst >= -1e-10


def test_pure_limit_matches_theorem1(basis2):
    for i in range(2000):
        rng = Xoshiro256pp(13, stream=i)
        state = draw_pure(rng, basis2)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        full = check_theorem1(a, b, state)
        limit = check_pure_limit(a, b, state)
        assert limit.margin == pytest.approx(full.margin, abs=1e-10)
        assert limit.holds


def test_pure_limit_rejects_mixed(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    with pytest.raises(ValueError, match="pure"):
        check_pure_limit(a, b, state_to_matrix([0.3, 0, 0], basis2))


def test_unit_vector_agrees_with_theorem1_margin(basis2):
    # Folding the axis angle by the state's cosine signs makes the scalar
    # form reproduce the signed bound margin exactly.
    for i in range(10000):
        rng = Xoshiro256pp(19, stream=i)
        state = draw_pure(rng, basis2)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        da2 = max(1.0 - float(a.a @ state.p) ** 2, 0.0)
        db2 = max(1.0 - float(b.a @ state.p) ** 2, 0.0)
        theta_eff = effective_axis_angle(a, b, state)
        scalar = check_unit_vector_relation(theta_eff, da2, db2)
        full = check_theorem1(a, b, state)
        assert scalar.margin == pytest.approx(full.margin, abs=1e-10)
        assert scalar.holds


# ---------------------------------------------------------------------------
# scalar unit-vector relation


def test_unit_vector_orthogonal_eigenstate_case():
    verdict = check_unit_vector_relation(math.pi / 2, 1.0, 0.0)
    assert verdict.holds and verdict.margin == pytest.approx(0.0, abs=1e-15)


def test_unit_vector_orthogonal_boundary_circle():
    # At theta_ab = pi/2 the feasibility boundary is dA^2 + dB^2 = 1.
    for da2 in np.linspace(0.0, 1.0, 101):
        verdict = check_unit_vector_relation(math.pi / 2, float(da2), float(1.0 - da2))
        assert abs(verdict.margin) < 1e-12
    inside = check_unit_vector_relation(math.pi / 2, 0.3, 0.3)
    assert not inside.holds  # dA^2 + dB^2 < 1 is infeasible


def test_unit_vector_parallel_degenerates_to_diagonal():
    for x in np.linspace(0.0, 1.0, 21):
        assert check_unit_vector_relation(0.0, float(x), float(x)).saturated
    assert not check_unit_vector_relation(0.0, 0.3, 0.5).holds


def test_unit_vector_domain_errors():
    with pytest.raises(ValueError):
        check_unit_vector_relation(-0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        check_unit_vector_relation(1.0, 1.4, 0.2)


# ---------------------------------------------------------------------------
# three-observable certainty equality


def test_equality_orthogonal_axes_sum_to_two(basis2):
    for i in range(500):
        state = draw_pure(Xoshiro256pp(23, stream=i), basis2)
        verdict = check_three_observable_equality(math.pi / 2, state)
        assert abs(verdict.margin) <= 1e-9
        p = state.p
        total = (1 - p[0] ** 2) + (1 - p[1] ** 2) + (1 - p[2] ** 2)
        assert total == pytest.approx(2.0, abs=1e-9)


def test_equality_eigenstate_substitution(basis2):
    theta = 0.8
    state = state_to_matrix([1.0, 0.0, 0.0], basis2)
    verdict = check_three_observable_equality(theta, state)
    assert abs(verdict.margin) <= 1e-12
    # dA2 = 0, dB2 = sin^2 theta, dC2 = 1 by direct substitution
    b = observable_from_bloch([math.cos(theta), math.sin(theta), 0.0], basis2)
    assert variance_matrix(b, state) == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_equality_haar_fuzz_and_projection(basis2):
    theta = math.pi / 4
    for i in range(10000):
        state = draw_pure(Xoshiro256pp(29, stream=i), basis2)
        verdict = check_three_observable_equality(theta, state)
        assert abs(verdict.margin) <= 1e-9
        p = state.p
        da2 = min(max(1.0 - p[0] ** 2, 0.0), 1.0)
        v = p[0] * math.cos(theta) + p[1] * math.sin(theta)
        db2 = min(max(1.0 - v * v, 0.0), 1.0)
        dc2 = 1.0 - p[2] ** 2
        assert -1e-12 <= dc2 <= 1.0 + 1e-12
        assert check_unit_vector_relation(theta, da2, db2).holds


def test_equality_rejects_mixed(basis2):
    with pytest.raises(ValueError, match="pure"):
        check_three_observable_equality(0.5, state_to_matrix([0.5, 0, 0], basis2))


# ---------------------------------------------------------------------------
# axis-triple variance sum


def test_variance_sum_identity_examples(basis2):
    pure = state_to_matrix(_unit([0.3, -0.5, 0.2]), basis2)
    assert check_appendix_b(pure).lhs == pytest.approx(2.0, abs=1e-11)
    assert check_appendix_b(completely_mixed(basis2)).lhs == pytest.approx(3.0, abs=1e-11)
    rho = state_from_matrix(HermitianMatrix(np.diag([0.75, 0.25]).astype(complex)), basis2)
    verdict = check_appendix_b(rho)
    assert verdict.lhs == pytest.approx(2.75, abs=1e-12)
    assert abs(verdict.margin) <= 1e-11


def test_variance_sum_identity_fuzz(basis2):
    for i in range(2000):
        state = draw_mixed(Xoshiro256pp(31, stream=i), basis2)
        assert abs(check_appendix_b(state).margin) <= 1e-11


# ---------------------------------------------------------------------------
# N-dimensional trade-off


def _orthogonal_sample(rng, basis):
    a = draw_observable(rng, basis)
    b = draw_observable(rng, basis)
    state = draw_mixed(rng, basis)
    p = np.asarray(state.p, dtype=float).copy()
    frame = []
    for vec in (np.asarray(a.a), np.asarray(b.a)):
        w = vec.copy()
        for u in frame:
            w -= (w @ u) * u
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            frame.append(w / norm)
    for u in frame:
        p -= (p @ u) * u
    return a, b, p


def test_tradeoff_mixed_state_limit(basis3):
    a = observable_from_bloch(np.eye(8)[0], basis3)
    b = observable_from_bloch(np.eye(8)[1], basis3)
    verdict = check_appendix_c(a, b, completely_mixed(basis3), basis3)
    assert verdict.holds
    assert verdict.lhs == pytest.approx(0.0, abs=1e-15)
    assert verdict.rhs == pytest.approx(0.0, abs=1e-15)


def test_tradeoff_diagonal_axis_state(basis3):
    a = observable_from_bloch(np.eye(8)[0], basis3)
    b = observable_from_bloch(np.eye(8)[1], basis3)
    state = state_to_matrix(0.5 * np.eye(8)[7], basis3)
    assert check_appendix_c(a, b, state, basis3).holds


@pytest.mark.parametrize("n", [3, 4])
def test_tradeoff_rejection_fuzz(n):
    basis = basis_for(n)
    accepted = 0
    i = 0
    while accepted < 300:
        rng = Xoshiro256pp(500 + n, stream=i)
        i += 1
        a, b, p = _orthogonal_sample(rng, basis)
        try:
            state = state_to_matrix(p, basis)
        except UnphysicalState:
            continue
        verdict = check_appendix_c(a, b, state, basis)
        assert verdict.margin >= -1e-9
        accepted += 1
    assert i < 3000  # acceptance rate stays sane


def test_tradeoff_requires_zero_means(basis3):
    a = observable_from_bloch(np.eye(8)[0], basis3)
    b = observable_from_bloch(np.eye(8)[1], basis3)
    state = state_to_matrix(0.4 * np.eye(8)[0], basis3)
    with pytest.raises(ValueError, match="zero means"):
        check_appendix_c(a, b, state, basis3)


# ---------------------------------------------------------------------------
# comparison baselines


def test_robertson_saturated_on_eigenstate_of_third_axis(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    state = state_to_matrix([0, 0, 1.0], basis2)
    verdict = robertson_bound(a, b, state)
    assert verdict.lhs == pytest.approx(1.0, abs=1e-12)
    assert verdict.rhs == pytest.approx(1.0, abs=1e-12)
    assert verdict.saturated


def test_robertson_triviality_case(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    eigenstate_of_a = state_to_matrix([1.0, 0, 0], basis2)
    verdict = robertson_bound(a, b, eigenstate_of_a)
    assert verdict.rhs == 0.0
    assert verdict.lhs == 0.0
    assert verdict.holds


def test_robertson_fuzz_all_dims():
    for n in (2, 3, 4):
        basis = basis_for(n)
        for i in range(500):
            rng = Xoshiro256pp(600 + n, stream=i)
            state = draw_pure(rng, basis) if i % 2 == 0 else draw_mixed(rng, basis)
            a = draw_observable(rng, basis)
            b = draw_observable(rng, basis)
            assert robertson_bound(a, b, state).margin >= -1e-10


def test_state_dependent_bound_examples(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    ket0 = state_to_matrix([0, 0, 1.0], basis2)
    for verdict in state_dependent_bound(a, b, ket0):
        assert verdict.holds
        assert verdict.lhs == pytest.approx(2.0, abs=1e-12)
        assert verdict.rhs == pytest.approx(2.0, abs=1e-12)


def test_state_dependent_phase_invariance(basis2):
    rng = Xoshiro256pp(71)
    a = draw_observable(rng, basis2)
    b = draw_observable(rng, basis2)
    state = draw_pure(rng, basis2)
    w, vecs = np.linalg.eigh(state.rho.array)
    ket = vecs[:, -1]
    base, _ = state_dependent_bound(a, b, state)
    for phase in (0.3, 1.2, 4.0):
        ket_perp = np.exp(1j * phase) * vecs[:, 0]
        term1 = (1j * (ket.conj() @ ((a.matrix.array @ b.matrix.array - b.matrix.array @ a.matrix.array) @ ket))).real
        amp = ket.conj() @ ((a.matrix.array + 1j * b.matrix.array) @ ket_perp)
        assert term1 + abs(amp) ** 2 == pytest.approx(base.rhs, abs=1e-12)


def test_state_dependent_fuzz(basis2):
    for i in range(2000):
        rng = Xoshiro256pp(73, stream=i)
        state = draw_pure(rng, basis2)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        plus, minus = state_dependent_bound(a, b, state)
        assert plus.margin >= -1e-10
        assert minus.margin >= -1e-10


def test_state_dependent_rejects_mixed(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    with pytest.raises(NotApplicable):
        state_dependent_bound(a, b, completely_mixed(basis2))


# ---------------------------------------------------------------------------
# spans from the scalar relation


def test_effective_axis_angle_folds_with_cosine_signs(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch(_unit([-1.0, 0.4, 0.0]), basis2)
    state = state_to_matrix([0.9, 0.1, 0.0], basis2)
    raw = math.acos(float(np.dot(a.a, b.a)))
    eff = effective_axis_angle(a, b, state)
    # cosines of (a.p) and (b.p) have opposite signs here, so the
    # effective angle is the supplement of the raw one.
    assert eff == pytest.approx(math.pi - raw, abs=1e-12)
    aligned = state_to_matrix([0.0, 0.9, 0.0], basis2)
    assert effective_axis_angle(a, b, aligned) == pytest.approx(raw, abs=1e-12)


def test_span_given_da2_quarter():
    lo, hi = db_span_given_da2(math.pi / 6, 0.25)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_span_eigenstate_pins_db():
    lo, hi = db_span_given_da2(math.pi / 2, 0.0)
    assert (lo, hi) == (1.0, 1.0)


def test_span_parallel_collapses():
    lo, hi = db_span_given_da2(0.0, 0.36)
    assert lo == pytest.approx(0.6, abs=1e-12)
    assert hi == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize(
    "theta_ab,da2,message",
    [(2.0, 0.25, "fold theta_ab into"), (math.nan, 0.25, "fold theta_ab into"),
     (0.5, 1.5, "dA2 = 1.5 outside"), (0.5, -0.1, "dA2 = -0.1 outside"),
     (0.5, math.nan, "dA2 = nan outside")],
)
def test_span_given_da2_rejects_arguments_outside_its_domain(theta_ab, da2, message):
    with pytest.raises(ValueError, match=message):
        db_span_given_da2(theta_ab, da2)


def test_span_any_state_is_full_interval():
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
        lo, hi = db_span_any_state(theta)
        assert lo <= 1e-7 and hi >= 1.0 - 1e-7


def test_span_matches_monte_carlo(basis2):
    theta = math.pi / 6
    target = 0.25
    hits = []
    for i in range(20000):
        state = draw_pure(Xoshiro256pp(91, stream=i), basis2)
        p = state.p
        da2 = 1.0 - p[0] ** 2
        if abs(da2 - target) > 5e-3:
            continue
        v = p[0] * math.cos(theta) + p[1] * math.sin(theta)
        hits.append(math.sqrt(max(1.0 - v * v, 0.0)))
    lo, hi = db_span_given_da2(theta, target)
    assert min(hits) >= lo - 1e-9
    assert max(hits) <= hi + 0.02  # slice width widens the observed interval
    assert max(hits) >= hi - 0.05  # and the top of the interval is reached


def test_verdicts_equal_the_dataclass_built_ones(basis2):
    # _verdict sets the fields directly; a verdict is what the dataclass's
    # own __init__ builds: the same class, fields, repr, equality and hash.
    rng = Xoshiro256pp(7, stream=3)
    a, b = draw_observable(rng, basis2), draw_observable(rng, basis2)
    verdict = check_theorem1(a, b, draw_mixed(rng, basis2))
    built = relations.RelationVerdict(
        relation_id="theorem1",
        lhs=verdict.lhs,
        rhs=verdict.rhs,
        margin=verdict.lhs - verdict.rhs,
        holds=verdict.margin >= -relations.HOLDS_TOL,
        saturated=abs(verdict.margin) <= relations.SATURATION_TOL,
    )
    assert type(verdict) is relations.RelationVerdict
    assert dataclasses.asdict(verdict) == dataclasses.asdict(built)
    assert verdict == built and hash(verdict) == hash(built) and repr(verdict) == repr(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.margin = 0.0
