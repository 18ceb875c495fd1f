"""Feasible variance regions by Monte-Carlo scatter plus boundary tracing.

Scans draw an ensemble, record tuples of squared variances, and mark an
occupancy grid over [0, 1]^d (cell size in squared-variance units,
default 0.01 to match figure-level precision).  Sample i always comes
from RNG stream i, so occupancy grows monotonically with the sample
count for a fixed seed.

Both scans are qubit-only and run on the batched engine's one loop,
``engine.chunks``, with a row of their own: a one-entry plan (the
ensemble's state) and a scan point of ``relations``
(``scan_pair_point`` with A and B, ``scan_triple_point`` with θ_ab),
whose function on rows (``_scan_pair_point``, ``_scan_triple_point``)
gives each row's squared variances and margin and marks the rows that
fail a check of the scalar constructors and checkers or the scan's
floor (NaN included), bit-identical to the per-state path.  The engine
replays a chunk's first failing row on that path for its own stream,
which raises the stream's own exception; if the replay passes, the scan
raises ``NumericsError`` naming the sample.

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

from . import engine
from .bloch import Observable, QuantumState, state_to_matrix
from .errors import DimensionMismatch, NumericsError, UndefinedAngle
from .relations import _within, check_theorem1
from .sampling import SampleConfig
from .sun_basis import basis_for

__all__ = [
    "RegionScan",
    "SaturationResult",
    "scan_pair",
    "scan_triple",
    "find_saturating_state",
    "unit_pair",
]

GRID_RANGE = (1e-3, 0.1)
# Largest scans the CLI runs.  A pair scan writing CSV, JSON and report
# takes 94 MB at 10**6 samples (max RSS, 2 vCPU Xeon; as much as the same
# scan writing nothing: the writers hold one ENGINE_CHUNK block of words
# at a time) and took 643 MB at MAX_SAMPLES.  The bool occupancy grid
# takes a byte a cell, and the JSON writer copies none of it: a 213**3
# triple grid (0.0047, under MAX_CELLS) writing CSV, JSON and report
# takes 53 MB at 10**5 samples (66 MB with a grid-sized int8 copy and its
# diff).  At MAX_CELLS pair scans reach the finest grid and triple scans
# need a grid of about 0.0047 or coarser.
MAX_SAMPLES = 10**7
MAX_CELLS = 10**7
_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
_COMPASS_STEPS = (0.25, 1e-10)  # first and smallest step of the sphere search, radians
_UNIT_ATOL = 1e-9  # largest ||a|^2 - 1| of an observable read as a unit one


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
        one grid cell, ``|samples[:, axis] - value| <= grid``; ``axis`` is
        0 or 1."""
        if self.samples.shape[1] != 2:
            raise ValueError("slice_span is defined for pair scans")
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {axis!r}")
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
    norms = math.sqrt(a.norm2 * b.norm2)
    if norms == 0.0:
        raise UndefinedAngle("axis angle undefined for a zero-norm observable")
    c = float(a.a @ b.a) / norms
    return math.acos(min(1.0, max(-1.0, c)))


def _validate_samples(samples: np.ndarray, norms: list[float]) -> None:
    for k, n2 in enumerate(norms):
        col = samples[:, k]
        if col.min(initial=0.0) < -1e-12 or col.max(initial=0.0) > n2 + 1e-12:
            raise NumericsError(
                f"axis {k} sample outside [-1e-12, {n2} + 1e-12]"
            )


def _scan(
    ensemble: SampleConfig, grid: float, norms: list, check: tuple, shared: str, given: dict,
    **fields,
) -> RegionScan:
    """The lanes loop of both scans: ``engine.chunks`` draws each chunk's
    ``StateBatch`` and checks it with ``shared``, the function of the
    scan point ``check`` of ``relations``, on ``given`` (A and B, or
    θ_ab), whose columns are each row's squared variances (one an axis,
    each at most its ``norms`` entry) and its margin (see the module
    docstring).  The grid is checked before any draw.  ``fields`` are the scan's own
    ``RegionScan`` fields: axes, theta_ab and boundary."""
    n_cells = _check_grid(grid)
    count = ensemble.count
    samples = np.empty((count, len(norms)))
    purities = np.empty(count)
    margins = np.empty(count)
    row = engine.Relation((2,), (ensemble.kind,), check, shared)
    for rng, (state,), values in engine.chunks(row, basis_for(2), ensemble.seed, count, **given):
        rows = slice(rng.streams[0], rng.streams[-1] + 1)
        samples[rows] = values[:, :-1]
        purities[rows] = state.purity
        margins[rows] = values[:, -1]
        del state, values  # freed before the next chunk draws
    _validate_samples(samples, norms)
    return RegionScan(
        grid=grid,
        samples=samples,
        purities=purities,
        margins=margins,
        occupancy=_occupancy(samples, grid, n_cells),
        **fields,
    )


def unit_pair(a: Observable, b: Observable) -> bool:
    """Whether both observables are unit ones, |a|² within ``_UNIT_ATOL``
    (1e-9) of 1, edge included: the pair the unit-vector relation and
    its analytic boundary are stated for."""
    return abs(a.norm2 - 1.0) <= _UNIT_ATOL and abs(b.norm2 - 1.0) <= _UNIT_ATOL


def scan_pair(a: Observable, b: Observable, ensemble: SampleConfig, grid: float) -> RegionScan:
    """Scatter (ΔA², ΔB²) over a qubit ensemble.

    Every sample's bound margin is recorded and must stay above -1e-9.
    Each sample is a ``relations.scan_pair_point`` of A and B, run on
    lanes a chunk of streams at a time (see the module docstring).  Pure
    ensembles with unit observables also get the analytic boundary
    attached.
    """
    if a.dim != 2 or b.dim != 2 or ensemble.dim != 2:
        raise DimensionMismatch("pair scans are defined for qubit observables and ensembles only")
    if max(a.norm2, b.norm2) > 1.0 + 1e-12:
        raise ValueError("occupancy grid covers [0, 1]; use |a| <= 1 observables")
    theta_ab = _axis_angle(a, b)
    boundary = None
    if ensemble.kind == "haar_pure" and unit_pair(a, b):
        boundary = _pair_boundary(theta_ab)
    return _scan(
        ensemble, grid, [a.norm2, b.norm2], ("scan_pair_point", "A", "B", "state", "index"),
        "_scan_pair_point", {"A": a, "B": b},
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
    satisfy it within 1e-9.  Each sample is a
    ``relations.scan_triple_point`` at θ_ab, run on lanes a chunk of
    streams at a time (see the module docstring).  ``boundary`` carries a
    parametric grid of the surface.
    """
    if ensemble.dim != 2 or ensemble.kind != "haar_pure":
        raise ValueError("triple scans are defined for pure qubit ensembles only")
    if not _within(theta_ab, math.pi):
        raise ValueError(f"theta_ab = {theta_ab!r} outside [0, pi]")
    return _scan(
        ensemble, grid, [1.0, 1.0, 1.0], ("scan_triple_point", "theta_ab", "state", "index"),
        "_scan_triple_point", {"theta_ab": theta_ab},
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
    to the common axis.  A zero-norm observable raises ``UndefinedAngle``.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("saturation search is defined for qubits")
    if not 0.0 < p_norm <= 1.0:
        raise ValueError(f"p_norm must lie in (0, 1], got {p_norm!r}")
    # a_hat divides by |a|, and e_hat by |b_perp|, which the parallel
    # branch catches at 0 unless |b|² is 0 as well.
    if a.norm2 == 0.0 or b.norm2 == 0.0:
        raise UndefinedAngle("saturation search undefined for a zero-norm observable")
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
