#!/usr/bin/env python3
# Closed-form transition matrices: diagonal * binomial * diagonal products.

from epgate import (
    ExactMatrix,
    ModelId,
    pascal_matrix,
    transition,
    transition_inverse,
)
from epgate.models import transition_factors

BH, AO = ModelId.BH, ModelId.AO

# Both families share the same combinatorial core: the binomial matrix with
# rows of Pascal's triangle stacked upside down.
print(pascal_matrix(5))
print()

# Sandwiching it between two diagonals (powers of i and square roots of
# binomials on the left, signed factorials on the right) yields the full
# transition matrix of the complex-symmetric family in closed form, at any
# dimension.
n = 6
pre, post = transition_factors(n, BH)
assert transition(n, BH) == pre @ pascal_matrix(n) @ post
print(transition(n, BH))
print()

# The real family uses the same skeleton without the complex phases.
pre, post = transition_factors(5, AO)
assert transition(5, AO) == pre @ pascal_matrix(5) @ post
print(transition(5, AO))
print()

# The factorization also delivers exact inverses: diagonals invert termwise
# and the binomial matrix has an integer inverse, so Q @ Q^-1 is exactly the
# identity, not approximately.
for n in (2, 6, 12):
    assert transition(n, BH) @ transition_inverse(n, BH) == ExactMatrix.identity(n)
    assert transition_inverse(n, AO) @ transition(n, AO) == ExactMatrix.identity(n)
print("exact inverses verified for N = 2, 6, 12")
print(transition_inverse(2, BH))
