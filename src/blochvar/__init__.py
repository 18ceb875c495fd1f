"""Bloch-vector variance toolkit.

Hermitian matrices decompose over the su(N) generator basis into real
coefficient vectors; variances of observables become geometry (norms,
angles, contracted vectors) in that space.  This package builds the
bases, converts between representations, evaluates variances through
two independent routes, checks the resulting state-independent
uncertainty and certainty relations, and maps feasible variance regions
by seeded Monte-Carlo scans.
"""

from .bloch import (
    Observable,
    QuantumState,
    completely_mixed,
    matrix_from_json,
    observable_from_bloch,
    observable_from_matrix,
    state_from_matrix,
    state_to_matrix,
)
from .engine import iter_states
from .errors import (
    DimensionMismatch,
    NotApplicable,
    NumericsError,
    UndefinedAngle,
    UnphysicalState,
)
from .linalg import HermitianMatrix
from .regions import RegionScan, SaturationResult, find_saturating_state, scan_pair, scan_triple
from .relations import (
    RelationVerdict,
    check_appendix_b,
    check_appendix_c,
    check_mixed_limit,
    check_pure_limit,
    check_theorem1,
    check_three_observable_equality,
    check_triangle,
    check_unit_vector_relation,
    db_span_any_state,
    db_span_given_da2,
    effective_axis_angle,
    robertson_bound,
    state_dependent_bound,
)
from .sampling import (
    SampleConfig,
    Xoshiro256pp,
    draw_mixed,
    draw_observable,
    draw_pure,
)
from .sun_basis import (
    GeneratorBasis,
    basis_for,
    build_basis,
    max_algebra_residual,
    structure_d,
    structure_f,
    verify_algebra,
)
from .variance import (
    AngleSet,
    PairGeometry,
    VarianceReport,
    angles,
    pair_geometry,
    variance_bloch,
    variance_matrix,
    variance_report,
    vector_angle,
)

__version__ = "0.1.0"
