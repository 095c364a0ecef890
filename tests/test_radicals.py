import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgate import models, radicals, serialize, spectra
from epgate.models import ModelId
from epgate.radicals import (
    DivisionByZero,
    GaussianRational,
    InvalidRadicand,
    MultiTermInverse,
    RadicalSum,
    ONE,
    ZERO,
    invert_monomial,
    squarefree_decompose,
)
from helpers import (
    assert_canonical,
    radical_sums,
    random_radical,
    trial_division_squarefree,
)

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


def test_squarefree_prime_cofactor_above_the_trial_bound():
    # a cofactor in [2^63, 3.317e24) that Miller-Rabin with the first 13
    # prime bases proves prime is squarefree, and ends the division at once
    for p in (2 ** 64 + 13, 2 ** 80 + 13, 3317044064679887385961813):
        start = time.perf_counter()
        assert squarefree_decompose(p) == (p, 1)
        assert squarefree_decompose(12 * p) == (3 * p, 2)
        assert time.perf_counter() - start < 0.5
    # a semiprime of two primes above 2^21 in that range is still refused,
    # as is 318665857834031151167461 = 399165290221 * 798330580441, a strong
    # pseudoprime to the first 12 prime bases that base 41 exposes
    for n in (2097169 * 35184372088891, 1073741827 * 1099511627791,
              318665857834031151167461):
        assert 2 ** 63 <= n < 3317044064679887385961981
        with pytest.raises(InvalidRadicand, match="no prime factor below 2"):
            squarefree_decompose(n)
    # above 3.317e24 the fixed bases prove nothing: the Mersenne prime
    # 2^89 - 1 (6.2e26) is refused
    with pytest.raises(InvalidRadicand, match="no prime factor below 2"):
        squarefree_decompose(2 ** 89 - 1)


def test_squarefree_rejects_nonpositive():
    with pytest.raises(InvalidRadicand):
        squarefree_decompose(0)
    with pytest.raises(InvalidRadicand):
        squarefree_decompose(-4)


def test_squarefree_cache_is_bounded():
    # every distinct AO parameter brings a new radicand: more distinct
    # radicands than the bound leave the cache at the bound
    size = radicals._SQUAREFREE_CACHE_SIZE
    for m in range(1, size + 100):
        squarefree_decompose(3 * m)
    info = squarefree_decompose.cache_info()
    assert info.maxsize == size
    assert info.currsize == size
    assert squarefree_decompose(360) == (10, 6)


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------

def test_add_merges_equal_radicands():
    assert SQRT2 + SQRT2 == RadicalSum({2: 2})


def test_add_cancels_to_empty_term_set():
    total = SQRT2 + (-SQRT2)
    assert total == ZERO
    assert total.items() == ()


def test_constructor_cancels_terms_that_share_a_radicand():
    # sqrt(8) = 2*sqrt(2) cancels -2*sqrt(2): the canonical zero
    total = RadicalSum({8: 1, 2: -2})
    assert total == ZERO
    assert total.items() == ()
    assert not total


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


def test_mul_cancels_cross_terms():
    # (sqrt(2) + sqrt(3)) * (sqrt(2) - sqrt(3)) = 2 - 3: the two sqrt(6)
    # cross terms cancel and leave no term behind
    sqrt3 = RadicalSum.sqrt_int(3)
    product = (SQRT2 + sqrt3) * (SQRT2 - sqrt3)
    assert product == RadicalSum.of(-1)
    assert product.items() == ((1, GaussianRational(-1)),)


def test_mul_extracts_square_factor():
    # sqrt(6) * sqrt(10) = 2*sqrt(15)
    assert RadicalSum.sqrt_int(6) * RadicalSum.sqrt_int(10) == RadicalSum({15: 2})


# ---------------------------------------------------------------------------
# monomial inversion and scaling
# ---------------------------------------------------------------------------

def test_invert_monomial_imaginary_radical():
    a = RadicalSum.gaussian(0, 1) * SQRT2
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
    assert SQRT2 / GaussianRational(0, 2) == \
        RadicalSum({2: GaussianRational(0, Fraction(-1, 2))})
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


# ---------------------------------------------------------------------------
# the coefficient value: a plain lowest-terms triple, no arithmetic
# ---------------------------------------------------------------------------

_parts = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                   st.fractions(max_denominator=10 ** 12))

_REMOVED_OPERATORS = ("_make", "__add__", "__radd__", "__sub__", "__rsub__",
                      "__neg__", "__mul__", "__rmul__", "reciprocal",
                      "__complex__")


@given(_parts, _parts)
def test_gaussian_rational_is_a_plain_value(re, im):
    # RadicalSum is the one number type with arithmetic; GaussianRational
    # is the coefficient value it accepts and returns
    assert [name for name in _REMOVED_OPERATORS
            if hasattr(GaussianRational, name)] == []
    assert not hasattr(RadicalSum, "as_gaussian")
    g = GaussianRational(re, im)
    triple = (g._re, g._im, g._den)
    assert all(type(x) is int for x in triple)
    assert g._den > 0 and math.gcd(*triple) == 1
    assert (g.re, g.im) == (Fraction(re), Fraction(im))
    with pytest.raises(TypeError):
        g + 1
    value = RadicalSum.gaussian(re, im)
    assert RadicalSum({1: g}) == value and RadicalSum.of(g) == value
    assert RadicalSum({2: g}) == value * SQRT2 == g * SQRT2
    if g:
        assert SQRT2 / g == SQRT2 * invert_monomial(value)
        assert RadicalSum({5: g}).items() == ((5, g),)


@given(_parts)
def test_real_triple_equals_and_hashes_as_the_rational(q):
    g = GaussianRational(q)
    for x in (q, Fraction(q), RadicalSum.of(q)):
        assert g == x and x == g
        assert hash(g) == hash(x)
    assert g != q + 1 and GaussianRational(q, 1) != q
    if Fraction(q).denominator == 1:
        assert g == int(q) and hash(g) == hash(int(q))


# numerators and powers of two that reach past both ends of the doubles:
# subnormals down to 2^-1074, and overflow past 2^1024
_extreme = st.builds(lambda m, e, d: Fraction(m, d) * Fraction(2) ** e,
                     st.integers(-2 ** 60, 2 ** 60), st.integers(-1140, 1090),
                     st.integers(1, 2 ** 40))


def _float_or_overflow(x):
    try:
        return float(x).hex()
    except OverflowError:
        return OverflowError


@given(st.one_of(_extreme, _parts), st.one_of(_extreme, _parts))
def test_complex_is_the_correctly_rounded_parts(re, im):
    g = GaussianRational(re, im)
    want = (_float_or_overflow(g.re), _float_or_overflow(g.im))
    if OverflowError in want:
        with pytest.raises(OverflowError):
            complex(RadicalSum.of(g))
        return
    got = complex(RadicalSum.of(g))
    assert (got.real.hex(), got.imag.hex()) == want


@given(radical_sums, radical_sums, st.integers(1, 10 ** 6))
def test_integer_terms_round_trip(a, b, scale):
    for value in (a, b, a * b, a + b, a - b):
        assert_canonical(value)
        terms = value.integer_terms()
        assert RadicalSum.from_integer_sums(
            {m: [re, im, den] for m, re, im, den in terms}) == value
        # an unreduced triple is reduced on the way in
        scaled = RadicalSum.from_integer_sums(
            {m: [re * scale, im * scale, den * scale]
             for m, re, im, den in terms})
        assert scaled == value
        assert_canonical(scaled)


# ---------------------------------------------------------------------------
# canonical form: every route that makes a value makes the one term tuple
# ---------------------------------------------------------------------------

_gaussians = st.builds(GaussianRational, _parts, _parts)


def _same_terms(x, y):
    return x.integer_terms() == y.integer_terms()


@given(radical_sums, radical_sums, _gaussians, st.integers(1, 10 ** 6),
       st.fractions(min_value=Fraction(1, 1000), max_value=10 ** 6,
                    max_denominator=1000),
       st.integers(1, 12))
def test_every_scalar_route_is_canonical(a, b, g, n, q, k):
    values = [a, b, a + b, a - b, a * b, -a, 1 - a, a * g, g * a, a + g,
              RadicalSum.of(g), RadicalSum.gaussian(g.re, g.im),
              RadicalSum.sqrt_int(n), RadicalSum.sqrt_rational(q),
              # radicands with a square factor enter reduced
              RadicalSum({m * k * k: c for m, c in a.items()}),
              RadicalSum.from_integer_sums(
                  {m: [re * k, im * k, den * k]
                   for m, re, im, den in a.integer_terms()})]
    if g:
        values.append(a / g)
    for x in (a, b, RadicalSum.sqrt_int(n), RadicalSum.sqrt_rational(q)):
        if len(x.integer_terms()) == 1:
            values.append(invert_monomial(x))
            assert _same_terms(invert_monomial(x) * x, ONE)
    for v in values:
        assert_canonical(v)
    # equal values are equal tuples, whatever the route
    assert _same_terms((a + b) - b, a)
    assert _same_terms(a * b, b * a)
    assert _same_terms(RadicalSum(dict(a.items())), a)
    assert _same_terms(values[14], a * k)
    assert _same_terms(RadicalSum.sqrt_int(n), RadicalSum({n: 1}))
    root = RadicalSum.sqrt_rational(q)
    assert _same_terms(root * root, RadicalSum.of(q))
    if g:
        assert _same_terms(a / g * g, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.sampled_from(list(ModelId)),
       st.sampled_from(["identity", "transition", "intertwiner"]),
       st.integers(-64, 64))
def test_every_matrix_route_is_canonical(n, model, frame, k):
    # BH z in [-2, 2]; AO lambda in [0, 1/4], inside the domain at every n
    param = (Fraction(k, 32) if model is ModelId.BH
             else Fraction(abs(k), 256))
    sample = models._sample(n, model, frame, param)
    a, b = models.family_pencil(n, model, frame)
    p = models.checked_parameter(n, model, param)
    c = (RadicalSum.of(p) if model is ModelId.BH
         else RadicalSum.sqrt_rational(1 - p))
    product = sample @ sample
    parsed = serialize.parse_json(serialize.render_json(sample))
    reference = [[a[i, j] + c * b[i, j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for e in (sample[i, j], product[i, j], parsed[i, j]):
                assert_canonical(e)
            assert _same_terms(sample[i, j], reference[i][j])
            assert _same_terms(parsed[i, j], sample[i, j])
    ladder = spectra.ladder_poly(n, spectra.ladder_d(model, p))
    recurrence = spectra.char_poly_tridiagonal(n, model, param)
    for x, y in zip(ladder.coefficients, recurrence.coefficients,
                    strict=True):
        assert_canonical(x)
        assert _same_terms(x, y)


@given(st.one_of(st.integers(), st.fractions(), _gaussians))
def test_a_rational_value_hashes_as_itself(x):
    r = RadicalSum.of(x)
    assert_canonical(r)
    assert r == x and hash(r) == hash(x)
