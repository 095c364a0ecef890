#!/usr/bin/env python3
# At the exceptional point the Hamiltonians are not diagonalizable; the
# transition matrices carry them to the canonical Jordan block instead.

from epgate import (
    ModelId,
    bh_hamiltonian,
    bh_in_jordan_basis,
    ao_in_jordan_basis,
    jordan_block,
    run_suite,
    transition,
)
from epgate.verify import CheckId

# The generalized eigenvalue problem at the EP reads H @ Q = Q @ J(0): the
# columns of Q chain into each other instead of being eigenvectors.
n = 5
h = bh_hamiltonian(n, 1)
q = transition(n, ModelId.BH)
j = jordan_block(n, 0)
assert h @ q == q @ j
print("H @ Q == Q @ J(0) exactly at N =", n)

# Equivalently, conjugating by Q reduces the EP Hamiltonian to the block.
assert bh_in_jordan_basis(n, 1) == j
assert ao_in_jordan_basis(n, 0) == j
print("Q^-1 @ H @ Q == J(0) for both families")
print(j)
print()

# Off the exceptional point the same conjugation is still exact and
# spectrum-preserving, but no longer produces the block.
from fractions import Fraction
l = bh_in_jordan_basis(4, Fraction(1, 2))
assert l != jordan_block(4, 0)
assert l.char_poly() == bh_hamiltonian(4, Fraction(1, 2)).char_poly()
print("off-EP conjugation preserves the exact characteristic polynomial")
print()

# The verification module packages these identities as pass/fail reports.
for report in run_suite(range(2, 9), checks=[CheckId.JORDANIZATION_BH,
                                             CheckId.JORDANIZATION_AO]):
    print(report)
