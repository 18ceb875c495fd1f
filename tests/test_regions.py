import math
from unittest import mock

import numpy as np
import pytest

from blochvar import (
    DimensionMismatch,
    NumericsError,
    SampleConfig,
    UndefinedAngle,
    Xoshiro256pp,
    basis_for,
    check_theorem1,
    check_three_observable_equality,
    check_unit_vector_relation,
    draw_mixed,
    draw_observable,
    draw_pure,
    effective_axis_angle,
    find_saturating_state,
    observable_from_bloch,
    scan_pair,
    scan_triple,
    state_to_matrix,
    variance_bloch,
)
from blochvar import bloch, cli, regions, relations, sampling, variance
from conftest import failure_ids


def _axis_pair(basis2, theta):
    a = observable_from_bloch([1.0, 0.0, 0.0], basis2)
    b = observable_from_bloch([math.cos(theta), math.sin(theta), 0.0], basis2)
    return a, b


def test_pair_scan_never_violates_bound(basis2):
    a, b = _axis_pair(basis2, math.pi / 3)
    cfg = SampleConfig(seed=5, dim=2, count=5000, kind="hs_mixed")
    scan = scan_pair(a, b, cfg, grid=0.01)
    assert np.nanmin(scan.margins) >= -1e-9
    assert scan.samples.min() >= -1e-12 and scan.samples.max() <= 1.0 + 1e-12
    assert scan.occupancy.any()


def test_pair_scan_boundary_saturates_scalar_relation(basis2):
    a, b = _axis_pair(basis2, math.pi / 2)
    cfg = SampleConfig(seed=5, dim=2, count=2000, kind="haar_pure")
    scan = scan_pair(a, b, cfg, grid=0.01)
    assert scan.boundary is not None
    for da2, db2 in scan.boundary[::37]:
        verdict = check_unit_vector_relation(
            scan.theta_ab, float(np.clip(da2, 0, 1)), float(np.clip(db2, 0, 1))
        )
        assert abs(verdict.margin) < 1e-9


def test_pair_scan_parallel_axes_collapse_to_line(basis2):
    a, b = _axis_pair(basis2, 0.0)
    cfg = SampleConfig(seed=6, dim=2, count=5000, kind="haar_pure")
    scan = scan_pair(a, b, cfg, grid=0.01)
    diff = np.abs(np.sqrt(scan.samples[:, 1]) - np.sqrt(scan.samples[:, 0]))
    assert diff.max() <= 1e-9


def test_pair_scan_every_sample_cell_is_occupied(basis2):
    a, b = _axis_pair(basis2, 1.0)
    cfg = SampleConfig(seed=8, dim=2, count=1000, kind="haar_pure")
    scan = scan_pair(a, b, cfg, grid=0.02)
    idx = np.clip((scan.samples / scan.grid).astype(int), 0, scan.n_cells - 1)
    assert scan.occupancy[idx[:, 0], idx[:, 1]].all()


def test_occupancy_monotone_in_sample_count(basis2):
    a, b = _axis_pair(basis2, 0.9)
    small = scan_pair(a, b, SampleConfig(seed=12, dim=2, count=3000, kind="haar_pure"), 0.01)
    large = scan_pair(a, b, SampleConfig(seed=12, dim=2, count=6000, kind="haar_pure"), 0.01)
    assert not np.any(small.occupancy & ~large.occupancy)


def test_pair_scan_rejects_bad_grid_and_norms(basis2):
    a, b = _axis_pair(basis2, 1.0)
    cfg = SampleConfig(seed=1, dim=2, count=10, kind="haar_pure")
    with pytest.raises(ValueError):
        scan_pair(a, b, cfg, grid=0.5)
    with pytest.raises(ValueError):
        scan_pair(observable_from_bloch([2.0, 0, 0], basis2), b, cfg, grid=0.01)


def test_pair_scan_is_qubit_only(basis2, basis3):
    qubit = _axis_pair(basis2, 1.0)
    qutrit = (
        observable_from_bloch([1.0] + [0.0] * 7, basis3),
        observable_from_bloch([0.0, 1.0] + [0.0] * 6, basis3),
    )
    for (a, b), dim in ((qubit, 3), (qutrit, 3), (qutrit, 2)):
        cfg = SampleConfig(seed=1, dim=dim, count=10, kind="haar_pure")
        with pytest.raises(DimensionMismatch):
            scan_pair(a, b, cfg, grid=0.01)


def _nan_at(shared, row, alone):
    """``shared``, a relation's function, with a NaN lhs on chunk row
    ``row`` of the lanes, and on one sample if ``alone``."""

    def patched(*args):
        lhs, *rest = shared(*args)
        if np.ndim(lhs) == 0:
            return (math.nan if alone else lhs), *rest
        return np.where(np.arange(len(lhs)) == row, math.nan, lhs), *rest

    return patched


def _scan_with(checker, basis2):
    cfg = SampleConfig(seed=1, dim=2, count=10, kind="haar_pure")
    if checker == "check_theorem1":
        return scan_pair(*_axis_pair(basis2, 1.0), cfg, grid=0.01)
    return scan_triple(1.0, cfg, grid=0.01)


_CHECKERS = ["check_theorem1", "check_three_observable_equality"]
# The function of each checker's relation that its scan point composes:
# the triple scan takes the equality's lhs, rhs and checks, and the
# variances with them, from `_axis_triple`.
_SHARED = {
    "check_theorem1": "_theorem1",
    "check_three_observable_equality": "_axis_triple",
}


@pytest.mark.parametrize("checker", _CHECKERS)
def test_scans_reject_nan_margins(basis2, monkeypatch, checker):
    # NaN on lanes and on the scalar path: the replay of sample 0 raises
    # the floor's own error.
    shared = _SHARED[checker]
    monkeypatch.setattr(relations, shared, _nan_at(getattr(relations, shared), 0, alone=True))
    with pytest.raises(NumericsError, match="sample 0 (violates|misses).*nan"):
        _scan_with(checker, basis2)


@pytest.mark.parametrize("checker", _CHECKERS)
def test_scans_reject_lane_only_nan_margins(basis2, monkeypatch, checker):
    # NaN on lanes alone: the replay passes, and the scan still raises
    # for that sample.
    shared = _SHARED[checker]
    monkeypatch.setattr(relations, shared, _nan_at(getattr(relations, shared), 0, alone=False))
    with pytest.raises(NumericsError, match=r"sample 0 \(stream 0\): a lane check failed"):
        _scan_with(checker, basis2)


def _norm(norm2):
    return mock.Mock(norm2=norm2)


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_unit_pair_admits_its_edge(side):
    # |a|^2 within 1e-9 of 1, edge included.  No double lies exactly 1e-9
    # from 1, so the edge is the last |a|^2 within it, a whole number of
    # ulps of 1 (2**-52 above, 2**-53 below), and the next one beyond it.
    ulp = 2.0**-52 if side == 1 else 2.0**-53
    inside = 1.0 + side * math.floor(1e-9 / ulp) * ulp
    outside = inside + side * ulp
    assert abs(inside - 1.0) <= 1e-9 < abs(outside - 1.0)
    unit = _norm(1.0)
    assert regions.unit_pair(_norm(inside), unit) and regions.unit_pair(unit, _norm(inside))
    assert not regions.unit_pair(_norm(outside), unit) and not regions.unit_pair(unit, _norm(outside))


def test_compare_and_the_pair_scan_share_the_unit_rule(basis2, monkeypatch):
    # Compare's unit-vector rows and the pair scan's analytic boundary
    # both follow `unit_pair`.
    a, b = _axis_pair(basis2, math.pi / 3)
    cfg = SampleConfig(seed=5, dim=2, count=20, kind="haar_pure")
    args = ["compare", "--state", "pure:(1,0,0)", "--A", "sigma1", "--B", "sigma2"]

    def span_applies():
        (row,) = [row for row in cli.run(args)[1]["results"] if row["bound"] == "axis_angle_span"]
        return row["applicable"]

    assert scan_pair(a, b, cfg, grid=0.01).boundary is not None and span_applies()
    monkeypatch.setattr(regions, "unit_pair", lambda a, b: False)
    monkeypatch.setattr(cli, "unit_pair", lambda a, b: False)
    assert scan_pair(a, b, cfg, grid=0.01).boundary is None and not span_applies()


def test_triple_scan_on_certainty_surface(basis2):
    cfg = SampleConfig(seed=14, dim=2, count=4000, kind="haar_pure")
    scan = scan_triple(math.pi / 2, cfg, grid=0.01)
    sums = scan.samples.sum(axis=1)
    assert np.abs(sums - 2.0).max() <= 1e-9
    assert np.abs(scan.margins).max() <= 1e-9
    assert scan.boundary is not None


def test_triple_scan_eigenstate_corners_present(basis2):
    cfg = SampleConfig(seed=15, dim=2, count=10000, kind="haar_pure")
    scan = scan_triple(math.pi / 2, cfg, grid=0.01)
    for axis in range(3):
        assert (scan.samples[:, axis] < 0.01).any(), f"axis {axis} corner unsampled"


def test_triple_projection_lands_in_pair_region(basis2):
    theta = math.pi / 4
    a, b = _axis_pair(basis2, theta)
    pair = scan_pair(a, b, SampleConfig(seed=16, dim=2, count=80000, kind="haar_pure"), 0.01)
    triple = scan_triple(theta, SampleConfig(seed=17, dim=2, count=10000, kind="haar_pure"), 0.01)
    n = pair.n_cells
    # dilate pair occupancy by one cell in each direction
    dilated = pair.occupancy.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            shifted = np.zeros_like(pair.occupancy)
            xs = slice(max(dx, 0), n + min(dx, 0))
            xd = slice(max(-dx, 0), n + min(-dx, 0))
            ys = slice(max(dy, 0), n + min(dy, 0))
            yd = slice(max(-dy, 0), n + min(-dy, 0))
            shifted[xd, yd] = pair.occupancy[xs, ys]
            dilated |= shifted
    idx = np.clip((triple.samples[:, :2] / 0.01).astype(int), 0, n - 1)
    assert dilated[idx[:, 0], idx[:, 1]].all()


def test_triple_scan_rejects_mixed_ensembles():
    cfg = SampleConfig(seed=1, dim=2, count=10, kind="hs_mixed")
    with pytest.raises(ValueError, match="pure"):
        scan_triple(1.0, cfg, grid=0.01)


@pytest.mark.parametrize("theta_ab", [-0.1, 3.5, math.nan])
def test_triple_scan_rejects_theta_outside_0_pi(theta_ab):
    cfg = SampleConfig(seed=1, dim=2, count=10, kind="haar_pure")
    with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
        scan_triple(theta_ab, cfg, grid=0.01)


def test_slice_span_is_for_pair_scans():
    scan = scan_triple(1.0, SampleConfig(seed=1, dim=2, count=10, kind="haar_pure"), 0.01)
    with pytest.raises(ValueError, match="slice_span is defined for pair scans"):
        scan.slice_span(0, 0.25)


def test_slice_span_matches_direct_selection(basis2):
    a, b = _axis_pair(basis2, math.pi / 6)
    scan = scan_pair(a, b, SampleConfig(seed=20, dim=2, count=20000, kind="haar_pure"), 0.01)
    lo, hi, count = scan.slice_span(0, 0.25)
    mask = np.abs(scan.samples[:, 0] - 0.25) <= 0.01
    assert count == int(mask.sum()) > 0
    assert lo == pytest.approx(float(np.sqrt(scan.samples[mask, 1]).min()))
    assert hi == pytest.approx(float(np.sqrt(scan.samples[mask, 1]).max()))


@pytest.mark.parametrize("axis", [-1, 2, -2])
def test_slice_span_rejects_axes_other_than_0_and_1(basis2, axis):
    # -1 would read axis 1 and 2 would index past the pair: both raise,
    # whether the cell at ``value`` is empty (5.0) or not (0.25).
    cfg = SampleConfig(seed=1, dim=2, count=50, kind="haar_pure")
    scan = scan_pair(*_axis_pair(basis2, 1.0), cfg, 0.01)
    for value in (0.25, 5.0):
        with pytest.raises(ValueError, match="axis must be 0 or 1"):
            scan.slice_span(axis, value)


# ---------------------------------------------------------------------------
# the lanes scans against the per-state loop


_ORACLE_THETA = 0.9


def _oracle_pair(basis):
    # A unit and a non-unit observable off the coordinate axes.
    return (
        observable_from_bloch([0.48, -0.6, 0.64], basis),
        observable_from_bloch([0.1, 0.7, -0.5], basis),
    )


_ORACLE_MODES = {"pair-pure": ("pair", "haar_pure"), "pair-mixed": ("pair", "hs_mixed"),
                 "triple": ("triple", "haar_pure")}


def scalar_scan(mode, cfg, grid=0.01):
    """The per-state loop the scans ran before the batched engine: the
    oracle of the lanes scans, as ``dense_reference`` is of the basis.

    ``mode`` is "pair" (the ``_oracle_pair`` observables) or "triple"
    (θ_ab = ``_ORACLE_THETA``).  Returns (samples, purities, margins,
    occupancy).  It draws sample i from stream i with ``draw_state``
    itself, so that it stays scalar whatever path ``iter_states`` takes.
    """
    basis = basis_for(2)
    rows = []
    for i in range(cfg.count):
        state = sampling.draw_state(cfg.kind, Xoshiro256pp(cfg.seed, stream=i), basis, i)
        rows.append(_scalar_row(mode, basis, i, state))
    table = np.array(rows)
    samples = table[:, :-2]
    n_cells = int(math.ceil(1.0 / grid - 1e-12))
    occupancy = np.zeros((n_cells,) * samples.shape[1], dtype=bool)
    occupancy[tuple(np.clip((samples / grid).astype(np.intp), 0, n_cells - 1).T)] = True
    return samples, table[:, -2], table[:, -1], occupancy


def _scalar_row(mode, basis, i, state):
    # One sample of scalar_scan: its variances, purity and margin.
    if mode == "pair":
        a, b = _oracle_pair(basis)
        da2 = variance_bloch(a, state, basis)
        db2 = variance_bloch(b, state, basis)
        margin = check_theorem1(a, b, state).margin
        if not margin >= relations._SCAN_MARGIN_FLOOR:
            raise NumericsError(f"sample {i} violates the qubit bound: {margin!r}")
        return da2, db2, state.purity, margin
    p = state.p
    u = p[0]
    v = p[0] * math.cos(_ORACLE_THETA) + p[1] * math.sin(_ORACLE_THETA)
    w = p[2]
    residual = check_three_observable_equality(_ORACLE_THETA, state).margin
    if not abs(residual) <= relations._SURFACE_TOL:
        raise NumericsError(f"sample {i} misses the certainty surface: {residual!r}")
    variances = (max(1.0 - u * u, 0.0), max(1.0 - v * v, 0.0), max(1.0 - w * w, 0.0))
    return variances + (state.purity, residual)


def _lanes_scan(mode, cfg):
    if mode == "pair":
        scan = scan_pair(*_oracle_pair(basis_for(2)), cfg, grid=0.01)
    else:
        scan = scan_triple(_ORACLE_THETA, cfg, grid=0.01)
    return scan.samples, scan.purities, scan.margins, scan.occupancy


def _assert_scans_equal(name, seed, count):
    mode, kind = _ORACLE_MODES[name]
    cfg = SampleConfig(seed=seed, dim=2, count=count, kind=kind)
    for got, expected in zip(_lanes_scan(mode, cfg), scalar_scan(mode, cfg), strict=True):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", sorted(_ORACLE_MODES))
@pytest.mark.parametrize("seed", [0, 1729, 2**64 - 1])
@pytest.mark.parametrize("chunk", [1, 7, 16])
def test_lanes_scans_match_scalar_loop(name, seed, chunk):
    with mock.patch.object(sampling, "ENGINE_CHUNK", chunk):
        _assert_scans_equal(name, seed, 40)


@pytest.mark.parametrize("name", sorted(_ORACLE_MODES))
@pytest.mark.parametrize("seed", [0, 1729, 2**64 - 1])
def test_lanes_scans_match_past_default_chunk(name, seed):
    _assert_scans_equal(name, seed, sampling.ENGINE_CHUNK + 5)


# Tightened tolerances make some samples fail: the lanes scan must raise
# what the per-state loop raises, for the same first failing sample.
_SCAN_FAILURES = [
    (bloch, "PSD_EIGENVALUE_FLOOR", 0.05, "pair-mixed"),
    (variance, "_NEGATIVE_VARIANCE_FLOOR", 0.2, "pair-pure"),
    (relations, "_SCAN_MARGIN_FLOOR", 0.01, "pair-mixed"),
    (relations, "_SURFACE_TOL", 2e-16, "triple"),
]


def _failing_samples(name, seed, count):
    mode, kind = _ORACLE_MODES[name]
    basis = basis_for(2)
    draw = draw_pure if kind == "haar_pure" else draw_mixed
    failing = []
    for i in range(count):
        try:
            _scalar_row(mode, basis, i, draw(Xoshiro256pp(seed, stream=i), basis))
        except (ValueError, ArithmeticError):
            failing.append(i)
    return failing


@pytest.mark.parametrize("module,attr,value,name", _SCAN_FAILURES, ids=failure_ids(_SCAN_FAILURES))
def test_first_failing_sample_raises_scalar_error(module, attr, value, name):
    cfg = SampleConfig(seed=4, dim=2, count=64, kind=_ORACLE_MODES[name][1])
    with mock.patch.object(module, attr, value):
        failing = _failing_samples(name, 4, 64)
        with pytest.raises(Exception) as scalar:
            scalar_scan(_ORACLE_MODES[name][0], cfg)
        with mock.patch.object(sampling, "ENGINE_CHUNK", 32), pytest.raises(Exception) as lanes:
            _lanes_scan(_ORACLE_MODES[name][0], cfg)
    assert type(lanes.value) is type(scalar.value)
    assert str(lanes.value) == str(scalar.value)
    # The first failing sample is not the first of its chunk, and a later
    # one in the same chunk fails too.
    assert 0 < failing[0] and failing[1] < 32


# ---------------------------------------------------------------------------
# saturation search


def test_saturation_at_full_purity(basis2):
    for k in range(20):
        rng = Xoshiro256pp(900, stream=k)
        a = draw_observable(rng, basis2)
        b = draw_observable(rng, basis2)
        result = find_saturating_state(a, b, 1.0)
        assert abs(result.achieved_margin) <= 1e-9
        assert result.achieved_margin >= -1e-10
        assert result.best_state.purity == pytest.approx(1.0, abs=1e-10)


def test_in_plane_beats_random_off_plane(basis2):
    theta = math.pi / 3
    a, b = _axis_pair(basis2, theta)
    result = find_saturating_state(a, b, 0.5)
    rng = Xoshiro256pp(901)
    best_random = math.inf
    for _ in range(10000):
        g = rng.gaussians(3)
        state = state_to_matrix(0.5 / np.linalg.norm(g) * g, basis2)
        best_random = min(best_random, check_theorem1(a, b, state).margin)
    assert result.achieved_margin <= best_random


def test_parallel_axes_fall_back_to_common_axis(basis2):
    a = observable_from_bloch([0.8, 0.0, 0.0], basis2)
    b = observable_from_bloch([0.5, 0.0, 0.0], basis2)
    result = find_saturating_state(a, b, 0.7)
    assert abs(result.achieved_margin) <= 1e-9
    direction = np.asarray(result.best_state.p) / 0.7
    assert abs(abs(direction[0]) - 1.0) < 1e-9


def test_saturation_rejects_bad_inputs(basis2, basis3):
    a, b = _axis_pair(basis2, 1.0)
    with pytest.raises(ValueError):
        find_saturating_state(a, b, 0.0)
    with pytest.raises(ValueError):
        find_saturating_state(a, b, 1.5)
    qutrit = observable_from_bloch(np.eye(8)[0], basis3)
    for pair in ((qutrit, b), (a, qutrit)):
        with pytest.raises(DimensionMismatch, match="defined for qubits"):
            find_saturating_state(*pair, 0.5)


@pytest.mark.filterwarnings("error")  # raised before any division, with no warning
@pytest.mark.parametrize("vec", [[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0]], ids=["zero", "underflow"])
@pytest.mark.parametrize("which", ["a", "b"])
def test_zero_norm_observable_raises_undefined_angle(basis2, vec, which):
    # |a|² of (1e-170, 0, 0) underflows to 0, as that of the zero vector is 0.
    zero = observable_from_bloch(vec, basis2)
    unit = observable_from_bloch([0.6, 0.8, 0.0], basis2)
    a, b = (zero, unit) if which == "a" else (unit, zero)
    cfg = SampleConfig(seed=1, dim=2, count=3, kind="haar_pure")
    with pytest.raises(UndefinedAngle):
        scan_pair(a, b, cfg, grid=0.01)
    with pytest.raises(UndefinedAngle):
        effective_axis_angle(a, b, state_to_matrix([0.1, 0.2, 0.3], basis2))
    with pytest.raises(UndefinedAngle):
        find_saturating_state(a, b, 0.5)


def test_pair_scan_of_norms_whose_product_underflows_raises_undefined_angle(basis2):
    tiny = observable_from_bloch([1e-100, 0.0, 0.0], basis2)  # |a|²|b|² = 1e-400
    cfg = SampleConfig(seed=1, dim=2, count=3, kind="haar_pure")
    with pytest.raises(UndefinedAngle):
        scan_pair(tiny, tiny, cfg, grid=0.01)
