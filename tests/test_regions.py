import math
from types import SimpleNamespace

import numpy as np
import pytest

from blochvar import (
    DimensionMismatch,
    NumericsError,
    SampleConfig,
    Xoshiro256pp,
    check_unit_vector_relation,
    draw_observable,
    find_saturating_state,
    observable_from_bloch,
    scan_pair,
    scan_triple,
    state_to_matrix,
)
from blochvar import regions


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


@pytest.mark.parametrize("checker", ["check_theorem1", "check_three_observable_equality"])
def test_scans_reject_nan_margins(basis2, monkeypatch, checker):
    monkeypatch.setattr(regions, checker, lambda *args: SimpleNamespace(margin=math.nan))
    cfg = SampleConfig(seed=1, dim=2, count=10, kind="haar_pure")
    with pytest.raises(NumericsError, match="sample 0"):
        if checker == "check_theorem1":
            scan_pair(*_axis_pair(basis2, 1.0), cfg, grid=0.01)
        else:
            scan_triple(1.0, cfg, grid=0.01)


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


def test_slice_span_matches_direct_selection(basis2):
    a, b = _axis_pair(basis2, math.pi / 6)
    scan = scan_pair(a, b, SampleConfig(seed=20, dim=2, count=20000, kind="haar_pure"), 0.01)
    lo, hi, count = scan.slice_span(0, 0.25)
    mask = np.abs(scan.samples[:, 0] - 0.25) <= 0.01
    assert count == int(mask.sum()) > 0
    assert lo == pytest.approx(float(np.sqrt(scan.samples[mask, 1]).min()))
    assert hi == pytest.approx(float(np.sqrt(scan.samples[mask, 1]).max()))


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
    from blochvar import check_theorem1

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


def test_saturation_rejects_bad_inputs(basis2):
    a, b = _axis_pair(basis2, 1.0)
    with pytest.raises(ValueError):
        find_saturating_state(a, b, 0.0)
    with pytest.raises(ValueError):
        find_saturating_state(a, b, 1.5)
