import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from epgate.radicals import (
    DivisionByZero,
    GaussianRational,
    InvalidRadicand,
    MultiTermInverse,
    RadicalSum,
    I,
    ONE,
    ZERO,
    invert_monomial,
    squarefree_decompose,
)
from helpers import radical_sums, random_radical, trial_division_squarefree

SQRT2 = RadicalSum.sqrt_int(2)
SQRT3 = RadicalSum.sqrt_int(3)
SQRT5 = RadicalSum.sqrt_int(5)


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

def test_squarefree_examples():
    assert squarefree_decompose(12) == (3, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(360) == (10, 6)


def test_squarefree_against_trial_division_oracle():
    rng = random.Random(7)
    values = list(range(1, 200)) + [rng.randint(1, 10**6) for _ in range(100)]
    # past the d^3 <= rem cutoff the rest is 1, p, p^2 or p*q, settled by one
    # integer square root: exercise each of those tails
    p, q, r = 1009, 1013, 997
    values += [p, p * p, p * q, p * p * q, p * q * q * 12, p * q * r,
               4 * p * p, 9 * p * q, 2 ** 20 * p, 3 ** 5 * q * q]
    values += [rng.randint(1, 10**8) for _ in range(50)]
    for n in values:
        s, f = squarefree_decompose(n)
        assert (s, f) == trial_division_squarefree(n)
        assert f * f * s == n


def test_squarefree_past_the_trial_bound():
    # trial division stops at 2^21; a cofactor above 2^63 left without a
    # prime factor below that is settled only when it is a perfect square
    p, q = 2 ** 61 - 1, 2 ** 31 - 1  # Mersenne primes
    assert squarefree_decompose(12 * p * p) == (3, 2 * p)
    with pytest.raises(InvalidRadicand, match="no prime factor below 2"):
        squarefree_decompose(12 * p * q)
    # below 2^63 the d^3 <= rem cutoff ends the division first
    assert squarefree_decompose(q * q * 12) == (3, 2 * q)


def test_squarefree_rejects_nonpositive():
    with pytest.raises(InvalidRadicand):
        squarefree_decompose(0)
    with pytest.raises(InvalidRadicand):
        squarefree_decompose(-4)


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------

def test_add_merges_equal_radicands():
    assert SQRT2 + SQRT2 == RadicalSum({2: 2})


def test_add_cancels_to_empty_term_set():
    total = SQRT2 + (-SQRT2)
    assert total == ZERO
    assert total.items() == ()


def test_add_keeps_distinct_radicands():
    total = RadicalSum({5: GaussianRational(1, 1)}) + 2 * SQRT2
    assert [m for m, _ in total.items()] == [2, 5]


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_mul_collapses_square():
    assert SQRT2 * SQRT2 == RadicalSum.of(2)


def test_mul_merges_radicands():
    assert SQRT5 * SQRT2 == RadicalSum.sqrt_int(10)


def test_mul_gaussian_norm():
    beta = RadicalSum.gaussian(-1, 1)
    assert beta * RadicalSum.gaussian(-1, -1) == RadicalSum.of(2)


def test_mul_extracts_square_factor():
    # sqrt(6) * sqrt(10) = 2*sqrt(15)
    assert RadicalSum.sqrt_int(6) * RadicalSum.sqrt_int(10) == RadicalSum({15: 2})


# ---------------------------------------------------------------------------
# monomial inversion and scaling
# ---------------------------------------------------------------------------

def test_invert_monomial_imaginary_radical():
    a = I * SQRT2
    inv = invert_monomial(a)
    assert inv == RadicalSum({2: GaussianRational(0, Fraction(-1, 2))})
    assert a * inv == ONE
    assert inv * a == ONE


def test_invert_monomial_minus_one():
    assert invert_monomial(RadicalSum.of(-1)) == RadicalSum.of(-1)


def test_invert_monomial_rejects_sums_and_zero():
    with pytest.raises(MultiTermInverse):
        invert_monomial(SQRT2 + SQRT3)
    with pytest.raises(DivisionByZero):
        invert_monomial(ZERO)


def test_scaling():
    assert (RadicalSum({2: 2})) / 2 == SQRT2
    assert ZERO * 7 == ZERO
    assert RadicalSum({5: GaussianRational(3, 6)}) / 3 == \
        RadicalSum({5: GaussianRational(1, 2)})
    assert SQRT2 * Fraction(3, 4) == RadicalSum({2: Fraction(3, 4)})
    with pytest.raises(DivisionByZero):
        SQRT2 / 0


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def test_eval_reference_values():
    assert abs(complex(SQRT2) - math.sqrt(2)) <= 1e-15
    assert complex(RadicalSum.gaussian(-1, 1)) == complex(-1, 1)
    half_sqrt6 = RadicalSum({6: Fraction(1, 2)})
    assert abs(complex(half_sqrt6) - math.sqrt(6) / 2) <= 1e-15


# ---------------------------------------------------------------------------
# constructors and canonical form
# ---------------------------------------------------------------------------

def test_sqrt_rational():
    # sqrt(3/4) = (1/2) sqrt(3);  sqrt(9/4) = 3/2
    assert RadicalSum.sqrt_rational(Fraction(3, 4)) == RadicalSum({3: Fraction(1, 2)})
    assert RadicalSum.sqrt_rational(Fraction(9, 4)) == RadicalSum.of(Fraction(3, 2))
    with pytest.raises(InvalidRadicand):
        RadicalSum.sqrt_rational(Fraction(-1, 2))
    with pytest.raises(InvalidRadicand):
        RadicalSum.sqrt_rational(0)


def test_constructor_canonicalizes_radicands():
    # 8 = 2^2 * 2, so sqrt(8) enters as 2*sqrt(2) and merges with sqrt(2)
    assert RadicalSum({8: 1}) + SQRT2 == RadicalSum({2: 3})
    assert RadicalSum({4: 1}) == RadicalSum.of(2)


def test_hash_agrees_with_equality_across_types():
    assert len({RadicalSum.of(1), 1, Fraction(1)}) == 1
    i_unit = GaussianRational(0, 1)
    assert len({RadicalSum.of(i_unit), i_unit}) == 1
    assert len({RadicalSum(), 0, Fraction(0), GaussianRational(0)}) == 1
    assert {RadicalSum.of(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"


def test_canonical_form_is_idempotent_and_clean():
    rng = random.Random(11)
    for _ in range(300):
        a = random_radical(rng)
        again = RadicalSum(dict(a.items()))
        assert again == a
        for m, c in a.items():
            assert squarefree_decompose(m)[1] == 1  # squarefree keys
            assert c  # no zero coefficients stored


# ---------------------------------------------------------------------------
# ring axioms on >= 10^3 random triples (seeded)
# ---------------------------------------------------------------------------

def test_ring_axioms_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_radical(rng)
        b = random_radical(rng)
        c = random_radical(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a * ONE == a
        assert a + ZERO == a


def test_eval_homomorphism_random():
    rng = random.Random(2025)
    for _ in range(1000):
        a = random_radical(rng)
        b = random_radical(rng)
        lhs = complex(a * b)
        rhs = complex(a) * complex(b)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
        lhs = complex(a + b)
        rhs = complex(a) + complex(b)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_invert_monomial_two_sided_random():
    rng = random.Random(2026)
    count = 0
    while count < 200:
        a = random_radical(rng, max_terms=1)
        if not a:
            continue
        count += 1
        assert a * invert_monomial(a) == ONE


# ---------------------------------------------------------------------------
# hypothesis property tests
# ---------------------------------------------------------------------------

@given(radical_sums, radical_sums)
def test_hypothesis_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(radical_sums)
def test_hypothesis_canonical_observables(a):
    for m, c in a.items():
        assert m >= 1
        assert squarefree_decompose(m)[0] == m
        assert c


@given(radical_sums)
def test_hypothesis_additive_inverse(a):
    assert a - a == ZERO
