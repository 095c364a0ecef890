#!/usr/bin/env python3
# Closed-form transition matrices: diagonal * binomial * diagonal products.

from epgate import (
    ExactMatrix,
    bh_transition,
    bh_transition_inverse,
    ao_transition,
    ao_transition_inverse,
    pascal_matrix,
)
from epgate.models import ModelId, transition_factors

# Both families share the same combinatorial core: the binomial matrix with
# rows of Pascal's triangle stacked upside down.
print(pascal_matrix(5))
print()

# Sandwiching it between two diagonals (powers of i and square roots of
# binomials on the left, signed factorials on the right) yields the full
# transition matrix of the complex-symmetric family in closed form, at any
# dimension.
n = 6
pre, post = transition_factors(n, ModelId.BH)
assert bh_transition(n) == pre @ pascal_matrix(n) @ post
print(bh_transition(n))
print()

# The real family uses the same skeleton without the complex phases.
pre, post = transition_factors(5, ModelId.AO)
assert ao_transition(5) == pre @ pascal_matrix(5) @ post
print(ao_transition(5))
print()

# The factorization also delivers exact inverses: diagonals invert termwise
# and the binomial matrix has an integer inverse, so Q @ Q^-1 is exactly the
# identity, not approximately.
for n in (2, 6, 12):
    assert bh_transition(n) @ bh_transition_inverse(n) == ExactMatrix.identity(n)
    assert ao_transition_inverse(n) @ ao_transition(n) == ExactMatrix.identity(n)
print("exact inverses verified for N = 2, 6, 12")
print(bh_transition_inverse(2))
