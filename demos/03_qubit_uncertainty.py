"""The state-independent qubit bound, stress-tested.

For any qubit state (any purity p^2 = |p|^2) and any two observables
with coefficient vectors a and b, the variances obey

    sqrt(a^2 (p^2-1) + Var A) sqrt(b^2 (p^2-1) + Var B)
        >= | sqrt(a^2 - Var A) sqrt(b^2 - Var B) - g p^2 |,   g = a.b

with equality exactly when p is coplanar with a and b.  The bound comes
from the triangle inequality on the angles between the three vectors.
This script fuzzes it, shows the completely mixed state pinning both
variances, and runs the saturation search at several radii.
"""

import math

from blochvar import (
    Xoshiro256pp,
    basis_for,
    check_mixed_limit,
    check_theorem1,
    check_triangle,
    completely_mixed,
    draw_mixed,
    draw_observable,
    draw_pure,
    find_saturating_state,
    variance_matrix,
)

print(__doc__)
basis = basis_for(2)

# --- fuzz -------------------------------------------------------------------
worst = math.inf
for i in range(20000):
    rng = Xoshiro256pp(31415, stream=i)
    state = draw_pure(rng, basis) if i % 2 == 0 else draw_mixed(rng, basis)
    a = draw_observable(rng, basis)
    b = draw_observable(rng, basis)
    worst = min(worst, check_theorem1(a, b, state).margin)
    worst = min(worst, check_triangle(a, b, state).margin)
print(f"20000 random (state, A, B) triples: worst bound margin = {worst:.3e}  (>= 0 expected)")

# --- the completely mixed limit ---------------------------------------------
rng = Xoshiro256pp(99)
a = draw_observable(rng, basis, unit=False)
b = draw_observable(rng, basis, unit=False)
mixed = completely_mixed(basis)
print("\ncompletely mixed state: the bound forces Var = |coeff|^2 exactly:")
print(f"  Var A = {variance_matrix(a, mixed):.12f}  vs |a|^2 = {a.norm2:.12f}")
print(f"  Var B = {variance_matrix(b, mixed):.12f}  vs |b|^2 = {b.norm2:.12f}")
print("  equality verdict margin:", f"{check_mixed_limit(a, b, mixed).margin:.2e}")

# --- saturation: coplanar states make it an equality ------------------------
print("\nsaturation search (golden section in-plane + compass search over the sphere):")
for radius in (1.0, 0.6, 0.25):
    rng = Xoshiro256pp(7)
    a = draw_observable(rng, basis)
    b = draw_observable(rng, basis)
    result = find_saturating_state(a, b, radius)
    print(
        f"  |p| = {radius:4.2f}: achieved margin {result.achieved_margin:+.2e} "
        f"after {result.iterations} evaluations"
    )
print("coplanarity saturates the bound at every radius, not just for pure states.")
