"""Feasible variance regions by Monte-Carlo scatter plus boundary tracing.

Scans draw an ensemble, record tuples of squared variances, and mark an
occupancy grid over [0, 1]^d (cell size in squared-variance units,
default 0.01 to match figure-level precision).  Sample i always comes
from RNG stream i, so occupancy grows monotonically with the sample
count for a fixed seed.

Both scans are qubit-only and run on the batched engine: each lanes
generator of ``lane_chunks`` (``ENGINE_CHUNK`` streams) draws one
``StateBatch`` through ``draw_state_batch``, and its variances, margins
and every check of the scalar constructors and checkers are array
operations, bit-identical to the per-state path (``draw_state``, ``variance_bloch``, the scalar
checkers).  A row that fails a check, or whose margin fails its floor
(NaN included), is replayed on that path for its own stream, which
raises the stream's own exception; if the replay passes, the scan raises
``NumericsError`` naming the sample.

For pair scans with unit observables the analytic boundary of the
scalar bound is attached: with the axis angle θ_ab it is traced by
coplanar states as (sin²θ, sin²(θ_ab ∓ θ)) for θ in [0, π/2].

``find_saturating_state`` looks for states that make the qubit bound an
equality at fixed |p|: a golden-section search over the angle inside the
plane spanned by the two coefficient vectors (where coplanarity predicts
exact saturation), cross-checked by a deterministic compass search over
the whole sphere that should find nothing lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import Observable, QuantumState, repeat_observable, state_to_matrix
from .errors import DimensionMismatch, NumericsError
from .linalg import py_max
from .relations import (
    check_theorem1,
    check_theorem1_batch,
    check_three_observable_equality,
    check_three_observable_equality_batch,
)
from .sampling import (
    SampleConfig,
    Xoshiro256pp,
    draw_state,
    draw_state_batch,
    lane_chunks,
    replay_first_bad,
)
from .sun_basis import basis_for
from .variance import variance_bloch, variance_bloch_batch

__all__ = [
    "RegionScan",
    "SaturationResult",
    "scan_pair",
    "scan_triple",
    "find_saturating_state",
]

GRID_RANGE = (1e-3, 0.1)
# Largest scans the CLI runs.  A pair scan writing CSV, JSON and report
# took 94 MB at 10**6 samples and 643 MB at MAX_SAMPLES (max RSS).  The bool
# occupancy grid takes a byte a cell, and the JSON writer copies none of
# it: a 213**3 triple grid (0.0047, under MAX_CELLS) writing CSV, JSON and
# report took 53 MB at 10**5 samples (66 MB with a grid-sized int8 copy and
# its diff).  At MAX_CELLS pair scans reach the finest grid and triple
# scans need a grid of about 0.0047 or coarser.
MAX_SAMPLES = 10**7
MAX_CELLS = 10**7
_SCAN_MARGIN_FLOOR = -1e-9
_SURFACE_TOL = 1e-9  # largest |residual| of a triple sample off the certainty surface
_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
_COMPASS_STEPS = (0.25, 1e-10)  # first and smallest step of the sphere search, radians


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Scatter of variance tuples with its occupancy grid.

    ``samples`` holds squared variances, shape (count, d); ``margins``
    holds each sample's governing-relation margin, never NaN: a scan
    raises on a margin that fails its floor, NaN included.  ``boundary``
    is an array of analytic boundary points or None.
    """

    axes: tuple[str, ...]
    theta_ab: float
    grid: float
    samples: np.ndarray = field(repr=False)
    purities: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)
    occupancy: np.ndarray = field(repr=False)
    boundary: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_cells(self) -> int:
        return self.occupancy.shape[0]

    def slice_span(self, axis: int, value: float) -> tuple[float, float, int]:
        """(min, max, count) of sqrt(variance) on the other axis within
        one grid cell, ``|samples[:, axis] - value| <= grid``."""
        if self.samples.shape[1] != 2:
            raise ValueError("slice_span is defined for pair scans")
        mask = np.abs(self.samples[:, axis] - value) <= self.grid
        if not mask.any():
            return math.nan, math.nan, 0
        other = np.sqrt(self.samples[mask, 1 - axis])
        return float(other.min()), float(other.max()), int(mask.sum())


@dataclass(frozen=True, eq=False)
class SaturationResult:
    """Best state found by the saturation search."""

    best_state: QuantumState
    achieved_margin: float
    iterations: int


def _check_grid(grid: float) -> int:
    lo, hi = GRID_RANGE
    if not lo <= grid <= hi:
        raise ValueError(f"grid {grid!r} outside [{lo}, {hi}]")
    return int(math.ceil(1.0 / grid - 1e-12))


def occupancy_cells(grid: float, axes: int) -> int:
    """Cells of the occupancy grid of an ``axes``-variance scan at ``grid``."""
    return _check_grid(grid) ** axes


def _occupancy(samples: np.ndarray, grid: float, n_cells: int) -> np.ndarray:
    occ = np.zeros((n_cells,) * samples.shape[1], dtype=bool)
    idx = np.clip((samples / grid).astype(np.intp), 0, n_cells - 1)
    occ[tuple(idx.T)] = True
    return occ


def _axis_angle(a: Observable, b: Observable) -> float:
    c = float(a.a @ b.a) / math.sqrt(a.norm2 * b.norm2)
    return math.acos(min(1.0, max(-1.0, c)))


def _validate_samples(samples: np.ndarray, norms: list[float]) -> None:
    for k, n2 in enumerate(norms):
        col = samples[:, k]
        if col.min(initial=0.0) < -1e-12 or col.max(initial=0.0) > n2 + 1e-12:
            raise NumericsError(
                f"axis {k} sample outside [-1e-12, {n2} + 1e-12]"
            )


def _scan(ensemble: SampleConfig, grid: float, norms: list, lanes, check, **fields) -> RegionScan:
    """The lanes loop of both scans.  Each chunk of streams draws one
    ``StateBatch``; ``lanes(state)`` returns its rows' squared variances
    (one array an axis, each at most its ``norms`` entry), margins and
    failed rows, and the first failing row is replayed as
    ``check(state, index)`` on the scalar path (see the module
    docstring).  ``fields`` are the scan's own ``RegionScan`` fields:
    axes, theta_ab and boundary."""
    n_cells = _check_grid(grid)
    basis = basis_for(2)
    count = ensemble.count
    samples = np.empty((count, len(norms)))
    purities = np.empty(count)
    margins = np.empty(count)

    def replay(index: int) -> None:
        check(draw_state(ensemble.kind, Xoshiro256pp(ensemble.seed, stream=index), basis, index), index)

    for rng in lane_chunks(ensemble.seed, count, basis.dim):
        state = draw_state_batch(ensemble.kind, rng, basis)
        values, margin, bad = lanes(state)
        replay_first_bad(bad, rng, replay)
        rows = slice(rng.streams[0], rng.streams[-1] + 1)
        for k, x in enumerate(values):
            samples[rows, k] = x
        purities[rows] = state.purity
        margins[rows] = margin
    _validate_samples(samples, norms)
    return RegionScan(
        grid=grid,
        samples=samples,
        purities=purities,
        margins=margins,
        occupancy=_occupancy(samples, grid, n_cells),
        **fields,
    )


def scan_pair(a: Observable, b: Observable, ensemble: SampleConfig, grid: float) -> RegionScan:
    """Scatter (ΔA², ΔB²) over a qubit ensemble.

    Every sample's bound margin is recorded and must stay above -1e-9.
    Each chunk of streams runs on lanes: ``variance_bloch_batch`` for the
    two variances and ``check_theorem1_batch``, with A and B repeated
    per row, for the margins.  The first failing row of a chunk is
    replayed on the scalar path (see the module docstring).  Pure
    ensembles with unit observables also get the analytic boundary
    attached.
    """
    _check_grid(grid)
    if a.dim != 2 or b.dim != 2 or ensemble.dim != 2:
        raise DimensionMismatch("pair scans are defined for qubit observables and ensembles only")
    if max(a.norm2, b.norm2) > 1.0 + 1e-12:
        raise ValueError("occupancy grid covers [0, 1]; use |a| <= 1 observables")

    def lanes(state):
        ra = repeat_observable(a, state.p.shape[0])
        rb = repeat_observable(b, state.p.shape[0])
        da2, bad_a = variance_bloch_batch(ra, state)
        db2, bad_b = variance_bloch_batch(rb, state)
        margin, bad = check_theorem1_batch(ra, rb, state)
        return (da2, db2), margin, bad | bad_a | bad_b | ~(margin >= _SCAN_MARGIN_FLOOR)

    def check(state, index: int) -> None:
        variance_bloch(a, state, basis_for(2))
        variance_bloch(b, state, basis_for(2))
        margin = check_theorem1(a, b, state).margin
        if not margin >= _SCAN_MARGIN_FLOOR:  # also rejects NaN
            raise NumericsError(f"sample {index} violates the qubit bound: {margin!r}")

    theta_ab = _axis_angle(a, b)
    boundary = None
    if ensemble.kind == "haar_pure" and abs(a.norm2 - 1.0) < 1e-9 and abs(b.norm2 - 1.0) < 1e-9:
        boundary = _pair_boundary(theta_ab)
    return _scan(
        ensemble, grid, [a.norm2, b.norm2], lanes, check,
        axes=("dA2", "dB2"), theta_ab=theta_ab, boundary=boundary,
    )


def _pair_boundary(theta_ab: float) -> np.ndarray:
    theta = np.linspace(0.0, math.pi / 2.0, 1001)
    da2 = np.sin(theta) ** 2
    lower = np.sin(theta_ab - theta) ** 2
    upper = np.sin(theta_ab + theta) ** 2
    return np.concatenate(
        [np.column_stack([da2, lower]), np.column_stack([da2, upper])]
    )


def scan_triple(theta_ab: float, ensemble: SampleConfig, grid: float) -> RegionScan:
    """Scatter (ΔA², ΔB², ΔC²) for the axis triple at θ_ab.

    Pure qubit ensembles only: the three variances of a pure state sit
    exactly on the certainty surface, and every sample is checked to
    satisfy it within 1e-9.  Each chunk of streams runs on lanes: the
    variances (1-u², 1-v², 1-w²) are array arithmetic on the Bloch rows
    and the residuals come from ``check_three_observable_equality_batch``;
    the first failing row of a chunk is replayed on the scalar path (see
    the module docstring).  ``boundary`` carries a parametric grid of the
    surface.
    """
    _check_grid(grid)
    if ensemble.dim != 2 or ensemble.kind != "haar_pure":
        raise ValueError("triple scans are defined for pure qubit ensembles only")
    if not -1e-12 <= theta_ab <= math.pi + 1e-12:
        raise ValueError(f"theta_ab = {theta_ab!r} outside [0, pi]")
    cos_t = math.cos(theta_ab)
    sin_t = math.sin(theta_ab)

    def lanes(state):
        residual, bad = check_three_observable_equality_batch(theta_ab, state)
        p = state.p
        uvw = (p[:, 0], p[:, 0] * cos_t + p[:, 1] * sin_t, p[:, 2])
        values = [py_max(1.0 - x * x, 0.0) for x in uvw]
        return values, residual, bad | ~(np.abs(residual) <= _SURFACE_TOL)

    def check(state, index: int) -> None:
        residual = check_three_observable_equality(theta_ab, state).margin
        if not abs(residual) <= _SURFACE_TOL:  # also rejects NaN
            raise NumericsError(f"sample {index} misses the certainty surface: {residual!r}")

    return _scan(
        ensemble, grid, [1.0, 1.0, 1.0], lanes, check,
        axes=("dA2", "dB2", "dC2"), theta_ab=theta_ab, boundary=_triple_surface(theta_ab),
    )


def _triple_surface(theta_ab: float) -> np.ndarray:
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, 61), np.linspace(0.0, 2.0 * math.pi, 121)
    )
    u = np.sin(theta) * np.cos(phi)
    v = np.sin(theta) * np.cos(phi - theta_ab)
    w = np.cos(theta)
    return np.column_stack(
        [(1.0 - u * u).ravel(), (1.0 - v * v).ravel(), (1.0 - w * w).ravel()]
    )


def _golden_min(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Golden-section minimum of f on [lo, hi] to 1e-12; returns (x, f(x), evals)."""
    c = hi - _GOLDEN_INV * (hi - lo)
    d = lo + _GOLDEN_INV * (hi - lo)
    fc = f(c)
    fd = f(d)
    evals = 2
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN_INV * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN_INV * (hi - lo)
            fd = f(d)
        evals += 1
    if fc < fd:
        return c, fc, evals
    return d, fd, evals


def _compass_min(f, x: tuple[float, float], fx: float) -> tuple[tuple[float, float], float, int]:
    """Compass search of f over two coordinates from x, where f(x) = fx.

    Polls the four axis moves at the current step, moves to the best one
    if it is strictly lower, and halves the step otherwise, from
    ``_COMPASS_STEPS[0]`` until it falls below ``_COMPASS_STEPS[1]``.
    Returns (x, f(x), evals).
    """
    step, smallest = _COMPASS_STEPS
    evals = 0
    while step >= smallest:
        th, ph = x
        moves = [(th + step, ph), (th - step, ph), (th, ph + step), (th, ph - step)]
        values = [f(m) for m in moves]
        evals += 4
        k = min(range(4), key=values.__getitem__)
        if values[k] < fx:
            x, fx = moves[k], values[k]
        else:
            step /= 2.0
    return x, fx, evals


def find_saturating_state(a: Observable, b: Observable, p_norm: float) -> SaturationResult:
    """Minimize the qubit bound margin over states with |p| = p_norm.

    Coplanar states are predicted to reach margin 0 for every |p|; the
    golden-section stage searches the in-plane angle to 1e-12, then a
    compass search over the spherical angles (θ, φ), started at that
    optimum, cross-checks that nothing off-plane does better.  Parallel
    coefficient vectors degenerate the plane; the search then falls back
    to the common axis.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("saturation search is defined for qubits")
    if not 0.0 < p_norm <= 1.0:
        raise ValueError(f"p_norm must lie in (0, 1], got {p_norm!r}")
    basis = basis_for(2)
    a_hat = a.a / np.linalg.norm(a.a)
    b_perp = b.a - float(b.a @ a_hat) * a_hat
    perp_norm = float(np.linalg.norm(b_perp))

    def margin_at(p_vec: np.ndarray) -> float:
        return check_theorem1(a, b, state_to_matrix(p_vec, basis)).margin

    if perp_norm < 1e-12 * math.sqrt(b.norm2):
        best_p = p_norm * a_hat
        return SaturationResult(
            best_state=state_to_matrix(best_p, basis),
            achieved_margin=margin_at(best_p),
            iterations=1,
        )

    e_hat = b_perp / perp_norm

    def in_plane(phi: float) -> float:
        return margin_at(p_norm * (math.cos(phi) * a_hat + math.sin(phi) * e_hat))

    phi_best, margin_best, evals = _golden_min(in_plane, 0.0, 2.0 * math.pi)
    best_p = p_norm * (math.cos(phi_best) * a_hat + math.sin(phi_best) * e_hat)

    def on_sphere(angles: tuple[float, float]) -> np.ndarray:
        th, ph = angles
        return p_norm * np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    th0 = math.acos(min(1.0, max(-1.0, best_p[2] / p_norm)))
    ph0 = math.atan2(best_p[1], best_p[0])
    angles, margin, compass_evals = _compass_min(
        lambda x: margin_at(on_sphere(x)), (th0, ph0), margin_best
    )
    evals += compass_evals
    if margin < margin_best:
        margin_best = margin
        best_p = on_sphere(angles)
    return SaturationResult(
        best_state=state_to_matrix(best_p, basis),
        achieved_margin=margin_best,
        iterations=evals,
    )
