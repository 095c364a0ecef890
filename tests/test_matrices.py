import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from epgate import models
from epgate.matrices import (
    ExactMatrix,
    ExactPolynomial,
    ShapeError,
    SingularError,
    StructureError,
    similarity,
)
from epgate.models import ModelId
from epgate.radicals import GaussianRational, RadicalSum
from helpers import (
    GOLDEN_Q_BH,
    G,
    T,
    assert_canonical,
    is_zero,
    leibniz_char_poly,
    naive_matmul,
    radical_sums,
    random_matrix,
    random_radical,
    transpose,
    with_entry,
    zeros,
)


# ---------------------------------------------------------------------------
# products and componentwise ops
# ---------------------------------------------------------------------------

def test_matmul_identity():
    p2 = models.pascal_matrix(2)
    assert p2 @ ExactMatrix.identity(2) == p2


def test_matmul_reproduces_factorized_transition():
    d = ExactMatrix.diagonal([
        RadicalSum.of(1),
        RadicalSum({2: GaussianRational(0, 1)}),
        RadicalSum.of(-1)])
    g = ExactMatrix.diagonal([-2, GaussianRational(0, -1), 1])
    assert d @ models.pascal_matrix(3) @ g == GOLDEN_Q_BH[3]


def test_matmul_involution():
    swap = ExactMatrix([[0, 1], [1, 0]])
    assert swap @ swap == ExactMatrix.identity(2)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)


def test_componentwise_ops():
    h = models.bh_hamiltonian(3, 1)
    assert is_zero(h - h)
    assert models.transition(2, ModelId.BH) == GOLDEN_Q_BH[2]
    j = models.jordan_block(3, 0)
    assert j != transpose(j)
    with pytest.raises(ShapeError):
        h + ExactMatrix.identity(2)


def test_matmul_associativity_random():
    rng = random.Random(31)
    for _ in range(100):
        a = random_matrix(rng, 3, max_terms=2, max_radicand=10, max_num=9, max_den=4)
        b = random_matrix(rng, 3, max_terms=2, max_radicand=10, max_num=9, max_den=4)
        c = random_matrix(rng, 3, max_terms=2, max_radicand=10, max_num=9, max_den=4)
        assert (a @ b) @ c == a @ (b @ c)


def _assert_canonical(m: ExactMatrix):
    for row in m.rows():
        for e in row:
            assert all(c for _, c in e.items())


@pytest.mark.parametrize("shape", [(3, 5, 2), (1, 1, 1), (4, 4, 4)])
def test_matmul_matches_naive_product_random(shape):
    rows, inner, cols = shape
    rng = random.Random(41)
    for _ in range(30):
        # coprime denominators up to 30 exercise the cross-multiply branch
        a = random_matrix(rng, rows, inner, max_radicand=30, max_den=30)
        b = random_matrix(rng, inner, cols, max_radicand=30, max_den=30)
        product = a @ b
        assert product == naive_matmul(a, b)
        assert product.shape == (rows, cols)
        _assert_canonical(product)


@st.composite
def _factor_pair(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    def matrix(n, m):
        return ExactMatrix([[draw(radical_sums) for _ in range(m)]
                            for _ in range(n)])
    return matrix(rows, inner), matrix(inner, cols)


@given(_factor_pair())
def test_hypothesis_matmul_matches_naive_product(pair):
    a, b = pair
    product = a @ b
    assert product == naive_matmul(a, b)
    _assert_canonical(product)


def test_matmul_mixed_denominators_and_radicands():
    # 1/3 + 1/5*sqrt(2)*sqrt(2) and sqrt(6)*sqrt(10) = 2*sqrt(15)
    a = ExactMatrix([[Fraction(1, 3), T(2, Fraction(1, 5))], [T(6, 1), 0]])
    b = ExactMatrix([[1, T(10, 0, 1)], [T(2, 1), T(2, 0, Fraction(1, 7))]])
    assert a @ b == ExactMatrix([
        [G(Fraction(1, 3) + Fraction(2, 5)),
         RadicalSum({10: GaussianRational(0, Fraction(1, 3)),
                     1: GaussianRational(0, Fraction(2, 35))})],
        [T(6, 1), T(15, 0, 2)]])


def test_matmul_imaginary_parts():
    # (i*sqrt(2)) * (i*sqrt(2)) + (1 + i) * (1 - i) = -2 + 2 = 0
    a = ExactMatrix([[T(2, 0, 1), G(1, 1)]])
    b = ExactMatrix([[T(2, 0, 1)], [G(1, -1)]])
    assert is_zero(a @ b)
    b2 = ExactMatrix([[T(2, 0, 1)], [G(1, 1)]])
    assert (a @ b2)[0, 0] == G(-2, 2)


def test_matmul_exact_cancellation_is_canonical():
    # sqrt(2)*sqrt(2) - 2 = 0 and sqrt(2)*sqrt(6) + 1 - 2*sqrt(3) = 1
    a = ExactMatrix([[T(2, 1), 1, T(3, 1)]])
    b = ExactMatrix([[T(2, 1), T(6, 1)], [-2, 1], [0, -2]])
    zero, one = (a @ b)[0, 0], (a @ b)[0, 1]
    assert zero == RadicalSum() and zero.items() == () and not zero
    assert one == RadicalSum.of(1) and one.items() == ((1, GaussianRational(1)),)
    assert hash(zero) == hash(RadicalSum()) == hash(0)
    assert hash(one) == hash(RadicalSum.of(1)) == hash(1)


# sparse operands: the kernel reads nonzero entries only, so every entry it
# never reaches, and every entry whose terms cancel, must still be the
# canonical zero

def _sparse(rng, n_rows, n_cols, keep):
    """Random radical entries at the positions where keep(i, j), else 0."""
    return ExactMatrix([[random_radical(rng, max_radicand=30) if keep(i, j)
                         else 0 for j in range(n_cols)]
                        for i in range(n_rows)])


def _assert_sparse_product(a, b):
    product, reference = a @ b, naive_matmul(a, b)
    assert product == reference
    zeros_seen = 0
    for row, ref_row in zip(product.rows(), reference.rows()):
        for e, ref in zip(row, ref_row):
            assert_canonical(e)
            if not ref:
                assert not e and e.items() == ()
                zeros_seen += 1
    return zeros_seen


def _tridiagonal_pattern(i, j):
    return abs(i - j) <= 1


def test_matmul_tridiagonal_and_dense_operands():
    rng = random.Random(7)
    for _ in range(10):
        tri = _sparse(rng, 5, 5, _tridiagonal_pattern)
        dense = random_matrix(rng, 5, 4, max_radicand=30)
        _assert_sparse_product(tri, dense)
        _assert_sparse_product(transpose(dense), tri)
    # two tridiagonal factors leave a pentadiagonal band: zeros off it
    assert _assert_sparse_product(
        _sparse(rng, 6, 6, _tridiagonal_pattern),
        _sparse(rng, 6, 6, _tridiagonal_pattern)) >= 12


def test_matmul_upper_triangular_operands():
    rng = random.Random(11)
    for _ in range(10):
        u = _sparse(rng, 5, 5, lambda i, j: i <= j)
        v = _sparse(rng, 5, 5, lambda i, j: i <= j)
        # the product is upper triangular: at least the 10 entries below
        assert _assert_sparse_product(u, v) >= 10
        _assert_sparse_product(u, random_matrix(rng, 5, 3, max_radicand=30))
    q = models.transition(6, ModelId.BH)
    _assert_sparse_product(models.pascal_matrix(6), q)


def test_matmul_all_zero_row_and_column():
    rng = random.Random(13)
    a = _sparse(rng, 4, 3, lambda i, j: i != 2)
    b = _sparse(rng, 3, 5, lambda i, j: j != 1)
    product = a @ b
    assert _assert_sparse_product(a, b) >= 8  # 5 in the row, 4 in the column
    assert all(not e for e in product.rows()[2])
    assert all(not row[1] for row in product.rows())
    _assert_sparse_product(zeros(2, 3), b)


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_matmul_pencil_sample_shape(model):
    # the (A[i, j], B[i, j]) rows of a pencil times the column (1, c), also
    # at c = 0 and with the rows where both A and B are zero
    n = 5
    a, b = models.family_pencil(n, model, "intertwiner")
    pairs = ExactMatrix([(a[i, j], b[i, j]) for i in range(n)
                         for j in range(n)])
    scale = 1 - models.checked_parameter(n, ModelId.AO, Fraction(1, 8))
    for c in (RadicalSum.sqrt_rational(scale), RadicalSum.of(Fraction(3, 4)),
              RadicalSum()):
        column = ExactMatrix([[1], [c]])
        assert _assert_sparse_product(pairs, column) > 0


def test_matmul_terms_cancelling_to_zero():
    # sqrt(2)*sqrt(3) - sqrt(3)*sqrt(2) and Q @ Q^-1 off the diagonal
    a = ExactMatrix([[T(2, 1), T(3, 1)], [T(5, 0, 1), 1]])
    b = ExactMatrix([[T(3, 1), 0], [T(2, -1), 0]])
    assert _assert_sparse_product(a, b) == 3
    for model in ModelId:
        q, q_inv = models.transition(5, model), models.transition_inverse(5, model)
        assert _assert_sparse_product(q, q_inv) == 20


# the kernel's own branches: a term pair with radicand 1 on either side
# keeps the other radicand, any other pair goes through a gcd, and an entry's
# terms are reduced and sorted once, at the end

def _assert_kernel_product(a, b):
    """a @ b against the naive product, entry by entry as term tuples."""
    product = a @ b
    for row, ref_row in zip(product.rows(), naive_matmul(a, b).rows()):
        for e, ref in zip(row, ref_row):
            assert_canonical(e)
            assert e.integer_terms() == ref.integer_terms()
    return product


def test_kernel_radical_free_times_radical():
    rational = ExactMatrix([[Fraction(1, 2), G(0, 3)],
                            [G(2, -1), Fraction(-5, 7)]])
    radical = ExactMatrix([[T(2, 1), T(3, Fraction(1, 3)) + 1],
                           [T(6, 0, 2), T(2, Fraction(-1, 4))]])
    # 1/2 * sqrt(2) + 3i * 2i*sqrt(6)
    assert _assert_kernel_product(rational, radical)[0, 0] == \
        T(2, Fraction(1, 2)) + T(6, -6)
    _assert_kernel_product(radical, rational)


def test_kernel_radicand_one_on_either_side():
    # 2 * 2*sqrt(7) + sqrt(5) * 1 + 1 * 1/3, and the same pairs swapped
    a = ExactMatrix([[2, T(5, 1), 1]])
    b = ExactMatrix([[T(7, 2)], [1], [Fraction(1, 3)]])
    assert _assert_kernel_product(a, b)[0, 0].integer_terms() == (
        (1, 1, 0, 3), (5, 1, 0, 1), (7, 4, 0, 1))
    _assert_kernel_product(transpose(b), transpose(a))


def test_kernel_pairs_meeting_on_one_radicand_cancel():
    # sqrt(2)*sqrt(3) (gcd), sqrt(6)*(-1) (radicand 1 on the right) and
    # 1*sqrt(6) (radicand 1 on the left) all reach sqrt(6)
    a = ExactMatrix([[T(2, 1), T(6, 1), 1]])
    assert _assert_kernel_product(
        a, ExactMatrix([[T(3, 1)], [-1], [T(6, 1)]]))[0, 0] == T(6, 1)
    zero = _assert_kernel_product(
        a, ExactMatrix([[T(3, 1)], [-1], [0]]))[0, 0]
    assert not zero and zero.integer_terms() == ()
    # denominators 2 and 6 cross-multiply before they cancel
    zero = _assert_kernel_product(
        ExactMatrix([[T(2, Fraction(1, 2)), T(6, Fraction(1, 3))]]),
        ExactMatrix([[T(3, 1)], [Fraction(-3, 2)]]))[0, 0]
    assert not zero and zero.integer_terms() == ()


def test_kernel_mixed_radicand_entry_comes_out_sorted():
    # pairs reach sqrt(35), sqrt(6), 3 and sqrt(2), in that order
    a = ExactMatrix([[T(5, 1), T(2, 1), T(3, 1), 1]])
    b = ExactMatrix([[T(7, 1)], [T(3, 1)], [T(3, 1)], [T(2, 1)]])
    e = _assert_kernel_product(a, b)[0, 0]
    assert e.integer_terms() == (
        (1, 3, 0, 1), (2, 1, 0, 1), (6, 1, 0, 1), (35, 1, 0, 1))


# ---------------------------------------------------------------------------
# structural inverses
# ---------------------------------------------------------------------------

def test_inverse_upper_triangular_2x2():
    r2 = ExactMatrix([[1, 1], [0, 1]])
    assert r2.inverse_upper_triangular() == ExactMatrix([[1, -1], [0, 1]])


def test_inverse_upper_triangular_identity():
    for n in (1, 2, 5):
        ident = ExactMatrix.identity(n)
        assert ident.inverse_upper_triangular() == ident


def test_inverse_upper_triangular_multiply_back():
    for n in range(2, 13):
        r = models.intertwiner_core(n)
        r_inv = r.inverse_upper_triangular()
        assert r @ r_inv == ExactMatrix.identity(n)
        assert r_inv @ r == ExactMatrix.identity(n)


def test_inverse_upper_triangular_of_a_scaled_core_multiplies_back():
    # a non-unit monomial diagonal, (1 + i)^k / 2^k, under radical entries
    for n in range(2, 9):
        pre, _ = models.intertwiner_factors(n)
        r = pre @ models.intertwiner_core(n)
        r_inv = r.inverse_upper_triangular()
        assert r @ r_inv == ExactMatrix.identity(n), n
        assert r_inv @ r == ExactMatrix.identity(n), n


def test_inverse_upper_triangular_structure_errors():
    with pytest.raises(StructureError):
        ExactMatrix([[1, 0], [1, 1]]).inverse_upper_triangular()
    with pytest.raises(SingularError):
        ExactMatrix([[0, 1], [0, 1]]).inverse_upper_triangular()
    with pytest.raises(SingularError):
        # multi-term diagonal entry has no monomial inverse
        sum_diag = RadicalSum.sqrt_int(2) + 1
        ExactMatrix([[sum_diag, 0], [0, 1]]).inverse_upper_triangular()


def test_inverse_rational_2x2():
    p2 = models.pascal_matrix(2)
    assert p2.inverse_rational() == ExactMatrix([[0, 1], [1, -1]])


def test_inverse_rational_multiply_back():
    for n in range(2, 13):
        p = models.pascal_matrix(n)
        p_inv = p.inverse_rational()
        assert p @ p_inv == ExactMatrix.identity(n)
        assert p_inv @ p == ExactMatrix.identity(n)
        # binomial matrices have integer inverses (determinant is a unit)
        for row in p_inv.rows():
            for e in row:
                g = e.as_gaussian()
                assert g.im == 0 and g.re.denominator == 1


def test_inverse_rational_errors():
    with pytest.raises(SingularError):
        ExactMatrix([[1, 1], [1, 1]]).inverse_rational()
    with pytest.raises(StructureError):
        ExactMatrix([[RadicalSum.sqrt_int(2), 0], [0, 1]]).inverse_rational()


def test_inverse_rational_swaps_rows_for_a_zero_pivot():
    swap = ExactMatrix([[0, 1], [1, 0]])
    assert swap.inverse_rational() == swap
    m = ExactMatrix([[0, 2, 0], [0, 0, Fraction(1, 3)], [-1, 0, 0]])
    inv = m.inverse_rational()
    assert inv == ExactMatrix([[0, 0, -1], [Fraction(1, 2), 0, 0], [0, 3, 0]])
    assert m @ inv == ExactMatrix.identity(3)
    assert inv @ m == ExactMatrix.identity(3)


def test_inverse_rational_gaussian_entries():
    m = ExactMatrix([[GaussianRational(0, 1), 1], [0, GaussianRational(2, -1)]])
    inv = m.inverse_rational()
    assert m @ inv == ExactMatrix.identity(2)
    assert inv @ m == ExactMatrix.identity(2)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_similarity_identity():
    h = models.bh_hamiltonian(3, Fraction(1, 2))
    ident = ExactMatrix.identity(3)
    assert similarity(h, ident, ident) == h


def test_similarity_jordanizes_ep_hamiltonian():
    h = models.bh_hamiltonian(2, 1)
    q, q_inv = (models.transition(2, ModelId.BH),
                models.transition_inverse(2, ModelId.BH))
    assert similarity(h, q, q_inv) == models.jordan_block(2, 0)


def test_similarity_changes_noncommuting_matrix():
    j = models.jordan_block(3, 0)
    p = models.pascal_matrix(3)
    assert similarity(j, p, p.inverse_rational()) != j


def test_similarity_preserves_char_poly():
    rng = random.Random(17)
    for n in (2, 3, 4):
        h = random_matrix(rng, n, max_terms=2, max_radicand=10, max_num=9, max_den=4)
        q = models.pascal_matrix(n)
        q_inv = q.inverse_rational()
        assert similarity(h, q, q_inv).char_poly() == h.char_poly()


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_nilpotent_jordan():
    assert models.jordan_block(3, 0).char_poly() == ExactPolynomial.power(3)


def test_char_poly_ep_hamiltonian():
    assert models.bh_hamiltonian(2, 1).char_poly() == ExactPolynomial.power(2)


def test_char_poly_off_ep_2x2():
    p = models.bh_hamiltonian(2, Fraction(1, 2)).char_poly()
    assert p == ExactPolynomial([Fraction(-3, 4), 0, 1])


def test_char_poly_against_leibniz_oracle():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            a = random_matrix(rng, n, max_terms=2, max_radicand=8,
                              max_num=7, max_den=3)
            assert a.char_poly() == ExactPolynomial(leibniz_char_poly(a))


def test_char_poly_is_monic():
    p = models.ao_hamiltonian(5, Fraction(1, 8)).char_poly()
    assert p.is_monic and p.degree == 5


# ---------------------------------------------------------------------------
# norms and polynomial helpers
# ---------------------------------------------------------------------------

def test_frobenius_norm():
    assert abs(ExactMatrix.identity(3).frobenius_norm() - math.sqrt(3)) < 1e-14
    q = models.transition(2, ModelId.BH)
    assert abs(q.frobenius_norm() - math.sqrt(3)) < 1e-14
    assert zeros(3, 4).frobenius_norm() == 0.0


def test_polynomial_normalization():
    p = ExactPolynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert ExactPolynomial([0]).degree == 0
    assert ExactPolynomial.power(0) == ExactPolynomial([1])


def test_polynomial_arithmetic_and_eval():
    p = ExactPolynomial([Fraction(-3, 4), 0, 1])  # E^2 - 3/4
    q = ExactPolynomial([1, 1])                   # E + 1
    assert p + q == ExactPolynomial([Fraction(1, 4), 1, 1])
    assert p - p == ExactPolynomial([0])
    assert (p - 1).coefficients[0] == RadicalSum.of(Fraction(-7, 4))


def test_with_entry():
    h = models.bh_hamiltonian(2, 1)
    h2 = with_entry(h, 0, 1, h[0, 1] + 1)
    assert h2 != h
    assert h2[0, 1] == RadicalSum.of(2)
    assert h2[1, 0] == h[1, 0]
