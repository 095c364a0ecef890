#!/usr/bin/env python3
# The direct bridge between the two exceptional-point Hamiltonians: an
# upper-triangular intertwiner S with S @ H_bh(1) = H_ao(0) @ S.

from epgate import (
    ExactMatrix,
    ModelId,
    ao_hamiltonian,
    bh_hamiltonian,
    intertwiner,
    intertwiner_core,
    intertwiner_inverse,
    transition,
    transition_inverse,
)
from epgate.models import intertwiner_factors

# S can be computed as a product of the two transition matrices ...
n = 5
via_transitions = transition(n, ModelId.AO) @ transition_inverse(n, ModelId.BH)

# ... but it also has its own three-factor closed form: powers of (-1+i) on
# the diagonals and a strictly real upper-triangular core of square roots of
# binomial products.
pre, post = intertwiner_factors(n)
closed_form = pre @ intertwiner_core(n) @ post
assert via_transitions == closed_form == intertwiner(n)
print(intertwiner(n))
print()
print("real core:")
print(intertwiner_core(n))
print()

# The defining property, in product form (no inverse needed):
assert intertwiner(n) @ bh_hamiltonian(n, 1) == \
    ao_hamiltonian(n, 0) @ intertwiner(n)
print("S @ H_bh(1) == H_ao(0) @ S exactly")

# S is an involution, so its exact inverse is S itself, and the two EP
# Hamiltonians are exactly similar.
s, s_inv = intertwiner(n), intertwiner_inverse(n)
assert s_inv == s
assert s @ s_inv == ExactMatrix.identity(n)
assert s @ bh_hamiltonian(n, 1) @ s_inv == ao_hamiltonian(n, 0)
print("H_ao(0) == S @ H_bh(1) @ S^-1 exactly")
