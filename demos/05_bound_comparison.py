"""Why a state-independent span beats expectation-value bounds.

The commutator bound Var(A) Var(B) >= |<[A,B]>|^2 / 4 collapses to the
trivial statement 0 >= 0 whenever the state kills the commutator
expectation, e.g. on an eigenstate of A.  The sum-of-variances bound
with an orthogonal state is stronger but needs the full state (and does
not exist for mixed states).  The Bloch-geometry relation instead
constrains the (Var A, Var B) pair for *every* state at once: given
theta_ab it carves out a region, and given a measured Var A it pins a
span for Var B.
"""

import math

from blochvar import (
    NotApplicable,
    basis_for,
    completely_mixed,
    db_span_any_state,
    db_span_given_da2,
    observable_from_bloch,
    robertson_bound,
    state_dependent_bound,
    state_to_matrix,
    variance_matrix,
)

print(__doc__)
basis = basis_for(2)
a = observable_from_bloch([1.0, 0.0, 0.0], basis)
b = observable_from_bloch([0.0, 1.0, 0.0], basis)

cases = [
    ("eigenstate of A", state_to_matrix([1.0, 0.0, 0.0], basis)),
    ("transverse pure state", state_to_matrix([0.0, 0.0, 1.0], basis)),
    ("completely mixed", completely_mixed(basis)),
]

for label, state in cases:
    print(f"\n--- {label} ---")
    rb = robertson_bound(a, b, state)
    print(f"commutator bound   : dA dB = {rb.lhs:.4f} >= {rb.rhs:.4f}"
          + ("   <- trivial, no information" if rb.rhs == 0.0 else ""))
    try:
        for name, sd in zip("+-", state_dependent_bound(a, b, state)):
            print(f"orthogonal-state ({name}): dA^2 + dB^2 = {sd.lhs:.4f} >= {sd.rhs:.4f}")
    except NotApplicable:
        print("orthogonal-state   : not applicable at either sign (mixed state)")
    da2 = variance_matrix(a, state)
    lo, hi = db_span_given_da2(math.pi / 2, min(da2, 1.0))
    print(f"pair-bound span    : given Var A = {da2:.3f}, dB must lie in [{lo:.4f}, {hi:.4f}]")

any_lo, any_hi = db_span_any_state(math.pi / 2)
print(f"\nwith no state information at all, dB still ranges over [{any_lo:.0f}, {any_hi:.0f}]"
      " and the pair region stays constrained;")

theta = math.pi / 6
lo, hi = db_span_given_da2(theta, 0.25)
print(f"the worked comparison point: theta_ab = pi/6, Var A = 1/4 "
      f"gives dB in [{lo:.4f}, {hi:.4f}] (sqrt(3)/2 = {math.sqrt(3)/2:.4f}),")
print("a two-sided, state-independent answer where the commutator bound can say nothing.")
