import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochvar import (
    HermitianMatrix,
    NumericsError,
    UndefinedAngle,
    Xoshiro256pp,
    angles,
    basis_for,
    completely_mixed,
    draw_mixed,
    draw_observable,
    draw_pure,
    observable_from_bloch,
    observable_from_matrix,
    pair_geometry,
    state_from_matrix,
    state_to_matrix,
    variance_bloch,
    variance_matrix,
    variance_report,
    vector_angle,
)
from blochvar import variance
from blochvar.bloch import repeat_state
from blochvar.linalg import failures
from blochvar.sampling import DIRECTION, XoshiroLanes, draw_batches
from conftest import built, random_hermitian

KET0 = HermitianMatrix(np.diag([1.0, 0.0]).astype(complex))


def test_eigenstate_has_zero_variance(basis2):
    state = state_from_matrix(KET0, basis2)
    sigma3 = observable_from_bloch([0, 0, 1.0], basis2)
    assert variance_matrix(sigma3, state) == 0.0


def test_transverse_axis_variance_one(basis2):
    state = state_from_matrix(KET0, basis2)
    sigma1 = observable_from_bloch([1.0, 0, 0], basis2)
    assert variance_matrix(sigma1, state) == pytest.approx(1.0, abs=1e-14)


def test_mixed_state_variance_is_norm(basis2):
    sigma1 = observable_from_bloch([1.0, 0, 0], basis2)
    assert variance_matrix(sigma1, completely_mixed(basis2)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_completely_mixed_reduces_to_trace_over_n(n):
    basis = basis_for(n)
    mixed = completely_mixed(basis)
    for seed in range(5):
        obs = draw_observable(Xoshiro256pp(seed), basis)
        tr_a2 = np.trace(obs.matrix.array @ obs.matrix.array).real
        expected = tr_a2 / n
        assert variance_bloch(obs, mixed, basis) == pytest.approx(expected, abs=1e-12)
        assert variance_matrix(obs, mixed) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_routes_agree_on_random_pairs(n):
    basis = basis_for(n)
    for i in range(500):
        rng = Xoshiro256pp(1000 + n, stream=i)
        state = draw_mixed(rng, basis)
        obs = draw_observable(rng, basis)
        assert abs(variance_matrix(obs, state) - variance_bloch(obs, state, basis)) <= 1e-9


def test_qubit_angle_form(basis2):
    # |a|^2 (1 - |p|^2 cos^2 theta_pa) against the matrix route.
    for i in range(200):
        rng = Xoshiro256pp(77, stream=i)
        state = draw_mixed(rng, basis2)
        obs = observable_from_bloch(rng.gaussians(basis2.n_generators), basis2)
        ang = angles(obs, obs, state)
        a2 = obs.norm2
        expected = a2 * (1.0 - state.purity * math.cos(ang.theta_pa) ** 2)
        assert variance_matrix(obs, state) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from([-3.0, 0.5, 10.0]), seed=st.integers(0, 1000))
def test_shift_invariance(alpha, seed):
    basis = basis_for(2)
    rng = Xoshiro256pp(seed)
    state = draw_mixed(rng, basis)
    h = random_hermitian(np.random.default_rng(seed), 2)
    base = observable_from_matrix(HermitianMatrix(h), basis)
    shifted = observable_from_matrix(HermitianMatrix(h + alpha * np.eye(2)), basis)
    assert variance_matrix(base, state) == pytest.approx(
        variance_matrix(shifted, state), abs=1e-10
    )


def test_negation_invariance(basis3):
    rng = Xoshiro256pp(5)
    state = draw_mixed(rng, basis3)
    obs = draw_observable(rng, basis3)
    neg = observable_from_bloch(-np.asarray(obs.a), basis3)
    assert variance_bloch(obs, state, basis3) == pytest.approx(
        variance_bloch(neg, state, basis3), abs=1e-12
    )


def test_variance_report_consistency(basis3):
    rng = Xoshiro256pp(9)
    state = draw_mixed(rng, basis3)
    obs = draw_observable(rng, basis3)
    report = variance_report(obs, state, basis3)
    assert report.discrepancy <= 1e-9
    assert report.variance >= 0.0
    assert report.mean == pytest.approx(float(obs.a @ state.p))


def test_angles_basic(basis2):
    state = state_to_matrix([0.0, 0.0, 1.0], basis2)
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0], basis2)
    ang = angles(a, b, state)
    assert ang.theta_pa == pytest.approx(math.pi / 2, abs=1e-14)
    assert ang.theta_ab == pytest.approx(math.pi / 6, abs=1e-14)


def test_coplanar_triple_matches_planar_oracle(basis2):
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi_a, phi_b, phi_p = rng.uniform(0.0, 2 * math.pi, size=3)
        radius = rng.uniform(0.1, 1.0)
        a = observable_from_bloch([math.cos(phi_a), math.sin(phi_a), 0.0], basis2)
        b = observable_from_bloch([math.cos(phi_b), math.sin(phi_b), 0.0], basis2)
        state = state_to_matrix(
            [radius * math.cos(phi_p), radius * math.sin(phi_p), 0.0], basis2
        )
        ang = angles(a, b, state)
        candidates = (
            abs(ang.theta_pa - ang.theta_pb),
            ang.theta_pa + ang.theta_pb,
            2 * math.pi - (ang.theta_pa + ang.theta_pb),
        )
        assert min(abs(ang.theta_ab - c) for c in candidates) < 1e-10


def test_angles_reject_completely_mixed(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    with pytest.raises(UndefinedAngle):
        angles(a, b, completely_mixed(basis2))


def test_nan_bloch_variance_raises(basis3):
    # As variance_matrix does: NaN fails the floor's check, on one object
    # and on the rows.
    state = draw_mixed(Xoshiro256pp(2), basis3)
    hacked = observable_from_bloch(draw_observable(Xoshiro256pp(1), basis3).a, basis3)
    object.__setattr__(hacked, "a_prime", np.full(8, np.nan))
    with pytest.raises(NumericsError, match="variance nan negative beyond round-off"):
        variance_bloch(hacked, state, basis3)
    value, checks = variance._variance_bloch(hacked, repeat_state(state, 2), 3)
    assert np.isnan(value).all() and failures(checks).all()


def test_vector_angle_zero_norm():
    with pytest.raises(UndefinedAngle):
        vector_angle([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("u, v", [
    ([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]),
    ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]),
    ([1.0, 0.0, 0.0], [0.0, 1.0]),
    (1.0, 2.0),
])
def test_vector_angle_takes_two_vectors_of_one_length(u, v):
    with pytest.raises(ValueError, match="two 1-D vectors of one length"):
        vector_angle(u, v)


# A NaN or infinite entry, and entries whose squares overflow (the angle
# to the x axis is pi/4): none has an angle computable in floats.
_NON_FINITE = [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1e300, 1e300, 0.0]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
def test_vector_angle_rejects_norms_without_a_finite_product():
    for u in _NON_FINITE:
        with pytest.raises(ValueError, match="product must be finite") as raised:
            vector_angle(u, [1.0, 0.0, 0.0])
        assert type(raised.value) is ValueError
    # The shared function flags the same rows of a stack, and no other.
    u = np.array(_NON_FINITE + [[1.0, 1.0, 0.0]])
    with np.errstate(all="ignore"):
        theta, checks = variance._vector_angle(u, np.tile([1.0, 0.0, 0.0], (4, 1)))
    assert failures(checks).tolist() == [True, True, True, False]
    assert theta[3] == vector_angle(u[3], [1.0, 0.0, 0.0])


def test_pair_geometry_qubit(basis2):
    a = observable_from_bloch([1.0, 0, 0], basis2)
    b = observable_from_bloch([0, 1.0, 0], basis2)
    geom = pair_geometry(a, b, basis2)
    assert geom.dot_ab == 0.0
    assert geom.a_prime2 == 0.0 and geom.b_prime2 == 0.0
    assert geom.dot_a_bprime == 0.0 and geom.dot_aprime_bprime == 0.0


def test_pair_geometry_self_cubic(basis3):
    obs = observable_from_bloch(np.eye(8)[0] * 0.7 + np.eye(8)[7] * 0.2, basis3)
    geom = pair_geometry(obs, obs, basis3)
    arr = obs.matrix.array
    assert geom.dot_a_aprime == pytest.approx(
        0.5 * np.trace(arr @ arr @ arr).real, abs=1e-12
    )


def test_pair_geometry_dual_routes(basis3):
    for i in range(20):
        rng = Xoshiro256pp(31, stream=i)
        a = observable_from_bloch(rng.gaussians(basis3.n_generators), basis3)
        b = observable_from_bloch(rng.gaussians(basis3.n_generators), basis3)
        pair_geometry(a, b, basis3)  # raises NumericsError on any mismatch


def test_pair_geometry_detects_corruption(basis3):
    a = draw_observable(Xoshiro256pp(1), basis3)
    b = draw_observable(Xoshiro256pp(2), basis3)
    hacked = observable_from_bloch(np.asarray(b.a), basis3)
    object.__setattr__(hacked, "a_prime", np.asarray(hacked.a_prime) + 1e-6)
    # Still caught beside |a| = 1e3, which widens the tolerance of every
    # pair that reads a.
    for partner in (a, observable_from_bloch(1e3 * np.asarray(a.a), basis3)):
        with pytest.raises(NumericsError):
            pair_geometry(partner, hacked, basis3)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
@pytest.mark.parametrize("norm", [30.0, 100.0, 1e3, 1e5])
def test_pair_geometry_accepts_observables_of_large_norm(n, norm):
    # a' . a' and a' . b' grow as |a|^2 |b|^2, and so does the rounding of
    # their trace route: an absolute 1e-10 called valid pairs of norm 30
    # corrupt.  Self-pairs included.
    basis = basis_for(n)
    for i in range(30):
        rng = Xoshiro256pp(61, stream=i)
        u, v = rng.gaussians(basis.n_generators), rng.gaussians(basis.n_generators)
        a = observable_from_bloch(norm / np.linalg.norm(u) * u, basis)
        b = observable_from_bloch(norm / np.linalg.norm(v) * v, basis)
        pair_geometry(a, b, basis)
        pair_geometry(a, a, basis)


@pytest.mark.filterwarnings("error")  # raised by the check, with no numpy warning first
def test_pair_geometry_rejects_overflowed_prime(basis3):
    # |a| = 1e80 at N = 3: a' . a' overflows to inf and its trace route to
    # NaN, which fails the route check however wide its tolerance.
    a = observable_from_bloch(1e80 * np.eye(8)[7], basis3)
    with pytest.raises(NumericsError, match="a_prime2"):
        pair_geometry(a, a, basis3)


# Each field's two vectors, as its name gives them.
_FIELD_VECTORS = {
    "a2": ("a", "a"), "a_prime2": ("a'", "a'"), "b2": ("b", "b"), "b_prime2": ("b'", "b'"),
    "dot_ab": ("a", "b"), "dot_a_bprime": ("a", "b'"), "dot_a_aprime": ("a", "a'"),
    "dot_b_bprime": ("b", "b'"), "dot_b_aprime": ("b", "a'"), "dot_aprime_bprime": ("a'", "b'"),
}


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pair_geometry_fields_read_their_own_vectors(n):
    # Both routes read one pair of indices a field, so a wrong pair would
    # pass the route check: pin each stored field to its own vectors.
    basis = basis_for(n)
    for i in range(10):
        rng = Xoshiro256pp(62, stream=i)
        a, b = draw_observable(rng, basis), draw_observable(rng, basis)
        vectors = {"a": a.a, "a'": a.a_prime, "b": b.a, "b'": b.a_prime}
        geom = pair_geometry(a, b, basis)
        for name, (x, y) in _FIELD_VECTORS.items():
            assert getattr(geom, name) == float(vectors[x] @ vectors[y]), name


def test_geometry_and_report_reject_nan(basis3):
    a = draw_observable(Xoshiro256pp(1), basis3)
    fields = vars(pair_geometry(a, a, basis3))
    for name in fields:
        with pytest.raises(NumericsError):
            variance.PairGeometry(**{**fields, name: math.nan})
    report = dict(variance=0.5, mean=0.1, via_matrix=0.5, via_bloch=0.5, discrepancy=0.0)
    variance.VarianceReport(**report)
    for name in ("variance", "discrepancy"):
        with pytest.raises(NumericsError):
            variance.VarianceReport(**{**report, name: math.nan})


def test_mean_used_by_bloch_route(basis2):
    for i in range(100):
        rng = Xoshiro256pp(12, stream=i)
        state = draw_pure(rng, basis2)
        obs = draw_observable(rng, basis2)
        report = variance_report(obs, state, basis2)
        direct = np.trace(obs.matrix.array @ state.rho.array).real
        assert report.mean == pytest.approx(direct, abs=1e-11)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_batched_routes_match_scalar_rows(n):
    # Row i of both functions on rows is the scalar value on stream i's
    # objects; pure and mixed states alternate.
    basis = basis_for(n)
    lanes = XoshiroLanes(7, range(40))
    plan = ("alternating", DIRECTION)
    states, obs = built(plan, draw_batches(plan, lanes, basis), basis)
    via_bloch, checks = variance._variance_bloch(obs, states, n)
    bad_bloch = failures(checks)
    via_matrix, checks = variance._variance_matrix(obs.matrix, states.rho)
    bad_matrix = failures(checks)
    assert not (bad_bloch | bad_matrix | states.bad | obs.bad).any()
    for i in range(40):
        rng = Xoshiro256pp(7, stream=i)
        state = (draw_pure if i % 2 == 0 else draw_mixed)(rng, basis)
        a = draw_observable(rng, basis)
        assert via_bloch[i] == variance_bloch(a, state, basis)
        assert via_matrix[i] == variance_matrix(a, state)
