import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgate import models, spectra
from epgate.matrices import ExactMatrix, ExactPolynomial, StructureError
from epgate.models import DomainError, ModelId, NonPositiveRadicand
from epgate.scenarios import sample_path
from epgate.spectra import (
    ConvergenceError,
    FloatPolynomial,
    char_poly_tridiagonal,
    condition_report,
    degeneracy_scan,
    find_roots,
    ladder_d,
    ladder_poly,
    ladder_roots,
    reality_scan,
)
from helpers import (
    assert_canonical,
    factor_by_factor_ladder_poly,
    gaussian_tridiagonal_char_poly,
    is_zero,
    leibniz_char_poly,
    model_cache_infos,
    perturb_constructor,
    random_radical,
)


# ---------------------------------------------------------------------------
# tridiagonal characteristic polynomial
# ---------------------------------------------------------------------------

def test_tridiagonal_char_poly_examples():
    assert char_poly_tridiagonal(2, ModelId.BH, Fraction(1, 2)) == \
        ExactPolynomial([Fraction(-3, 4), 0, 1])
    assert char_poly_tridiagonal(2, ModelId.AO, Fraction(1, 4)) == \
        ExactPolynomial([Fraction(-1, 4), 0, 1])
    for n in (2, 5, 9):
        assert char_poly_tridiagonal(n, ModelId.BH, 1) == ExactPolynomial.power(n)


def test_tridiagonal_matches_dense_char_poly():
    # cross-oracle: three-term recurrence vs Faddeev-LeVerrier
    params = {ModelId.BH: [Fraction(0), Fraction(1, 4), Fraction(1, 2),
                           Fraction(3, 4), Fraction(1)],
              ModelId.AO: [Fraction(0), Fraction(1, 16), Fraction(1, 8),
                           Fraction(1, 4)]}
    for n in range(2, 10):
        for model, values in params.items():
            for v in values:
                h = (models.bh_hamiltonian(n, v) if model is ModelId.BH
                     else models.ao_hamiltonian(n, v))
                assert char_poly_tridiagonal(n, model, v) == h.char_poly()


# z anywhere; lambda in [0, 1/2), where damping < lambda / (1 - lambda) < 1
_Z = st.fractions(min_value=-3, max_value=3, max_denominator=32)
_LAM = st.fractions(min_value=0, max_value=Fraction(15, 32),
                    max_denominator=32)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=20), _Z, _LAM)
def test_hypothesis_integer_recurrence_matches_gaussian_recurrence(n, z, lam):
    # the recurrence on data read from the parameter, on data read from the
    # constructed matrix, and the plain Gaussian-rational reference agree
    from epgate.spectra import _tridiagonal_char_poly
    for model, p, h in ((ModelId.BH, z, models.bh_hamiltonian(n, z)),
                        (ModelId.AO, lam, models.ao_hamiltonian(n, lam))):
        from_matrix, off_band = _tridiagonal_char_poly(h)
        assert is_zero(off_band)
        assert char_poly_tridiagonal(n, model, p) == from_matrix
        assert from_matrix == gaussian_tridiagonal_char_poly(h)


def test_large_denominator_ao_polynomial_builds():
    # lambda = 7/64 at N = 20 squarefree-decomposes 19 radicands with a 2^54
    # denominator; trial division up to sqrt(rem) took minutes on them
    lam = Fraction(7, 64)
    p = char_poly_tridiagonal(20, ModelId.AO, lam)
    assert p == gaussian_tridiagonal_char_poly(models.ao_hamiltonian(20, lam))
    assert p.is_monic and p.degree == 20
    assert all(c.as_gaussian().im == 0 for c in p.coefficients)


def test_coefficients_real_rational_and_traceless():
    for n in range(2, 13):
        for model, v in ((ModelId.BH, Fraction(1, 2)), (ModelId.AO, Fraction(1, 8))):
            p = char_poly_tridiagonal(n, model, v)
            for c in p.coefficients:
                g = c.as_gaussian()
                assert g.im == 0
            assert not p.coefficients[n - 1]  # traceless family


def test_band_reader_off_band_of_dense_matrix():
    # a dense matrix is read, not rejected: off_band is exactly its entries
    # with |i - j| > 1, and the polynomial is its band's
    from epgate.spectra import _tridiagonal_char_poly
    q = models.transition(3, ModelId.BH)
    poly, off_band = _tridiagonal_char_poly(q)
    assert off_band == ExactMatrix([[0, 0, q[0, 2]], [0, 0, 0],
                                    [q[2, 0], 0, 0]])
    assert not is_zero(off_band)
    band = ExactMatrix([[0 if abs(i - j) > 1 else q[i, j] for j in range(3)]
                        for i in range(3)])
    assert poly == band.char_poly()


_TRANSFORMED = (("bh_in_jordan_basis", ModelId.BH),
                ("bh_in_ao_frame", ModelId.BH),
                ("ao_in_jordan_basis", ModelId.AO),
                ("ao_in_bh_frame", ModelId.AO))


def test_band_reader_matches_dense_char_poly_on_transformed_families():
    # every similarity-transformed family is tridiagonal, and its band's
    # recurrence is its dense Faddeev-LeVerrier polynomial
    from epgate.spectra import _tridiagonal_char_poly
    params = {ModelId.BH: [Fraction(0), Fraction(1, 2), Fraction(1),
                           Fraction(-1)],
              ModelId.AO: [Fraction(0), Fraction(1, 8), Fraction(1, 4)]}
    for n in range(2, 11):
        for name, model in _TRANSFORMED:
            for v in params[model]:
                h = getattr(models, name)(n, v)
                poly, off_band = _tridiagonal_char_poly(h)
                assert is_zero(off_band), (n, name, v)
                assert poly == h.char_poly(), (n, name, v)


def test_band_reader_matches_leibniz_on_random_radical_bands():
    # multi-term entries over mixed radicands; Leibniz is n!, so n = 6..8
    # is checked against the dense Faddeev-LeVerrier instead, with a few
    # dozen radicands per coefficient
    from epgate.spectra import _tridiagonal_char_poly
    rng = random.Random(20260917)
    for n, count in [(n, 6) for n in range(1, 6)] + [(n, 4) for n in (6, 7, 8)]:
        for _ in range(count):
            h = ExactMatrix([
                [random_radical(rng, max_terms=3, max_radicand=12,
                                max_num=9, max_den=6)
                 if abs(i - j) <= 1 else 0 for j in range(n)]
                for i in range(n)])
            poly, off_band = _tridiagonal_char_poly(h)
            assert is_zero(off_band)
            assert poly == (ExactPolynomial(leibniz_char_poly(h)) if n <= 5
                            else h.char_poly()), n


# ---------------------------------------------------------------------------
# sl(2) ladder: closed-form polynomial and roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, n, param", [
    (ModelId.AO, 2, Fraction(-1, 4)),   # lambda < 0
    (ModelId.AO, 7, Fraction(-1, 64)),
    (ModelId.AO, 2, Fraction(1)),       # damping reaches 1
    (ModelId.AO, 6, Fraction(3, 4)),    # damping past 1 at K = 3
    (ModelId.AO, 9, Fraction(3, 5)),    # lambda + lambda^2 + lambda^3 > 1
    (ModelId.AO, 1, Fraction(1, 8)),    # dimension below 2
    (ModelId.BH, 1, Fraction(1, 2)),
], ids=lambda v: getattr(v, "value", str(v)))
def test_ladder_d_refuses_what_jacobi_data_refuses(model, n, param):
    # ladder_d and jacobi_data read the checked value unchecked; their entry
    # points, certified_spectrum and char_poly_tridiagonal, and the
    # constructors refuse what checked_parameter refuses, with its message
    with pytest.raises(ValueError) as want:
        models.checked_parameter(n, model, param)
    entries = [spectra.certified_spectrum, char_poly_tridiagonal] + [
        lambda n, model, p, frame=frame: models._sample(n, model, frame, p)
        for frame in ("identity", "transition", "intertwiner")]
    for entry in entries:
        with pytest.raises(ValueError) as got:
            entry(n, model, param)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_ladder_d_edge_messages():
    # raised by the check at certified_spectrum, the entry point to ladder_d
    with pytest.raises(DomainError, match=r"^lambda must be >= 0, got -1/4$"):
        spectra.certified_spectrum(4, ModelId.AO, Fraction(-1, 4))
    with pytest.raises(NonPositiveRadicand,
                       match=r"^coupling radicand 0 at row pair \(0,1\); "
                             r"lambda = 1 is outside the model domain$"):
        spectra.certified_spectrum(3, ModelId.AO, 1)


def _checked_d(n, model, param):
    return ladder_d(model, models.checked_parameter(n, model, param))


def test_ladder_examples():
    assert _checked_d(5, ModelId.BH, Fraction(1, 2)) == Fraction(3, 4)
    assert _checked_d(6, ModelId.AO, Fraction(1, 2)) == Fraction(3, 4)
    assert _checked_d(3, ModelId.AO, Fraction(1, 2)) == Fraction(1, 2)
    # outside the domain too: z = 3 and damping 2
    assert ladder_d(ModelId.BH, Fraction(3)) == -8
    assert ladder_d(ModelId.AO, Fraction(2)) == 2
    # (E^2 - 9d)(E^2 - d) and E(E^2 - 4d)
    assert ladder_poly(4, Fraction(2)) == ExactPolynomial([36, 0, -20, 0, 1])
    assert ladder_poly(3, Fraction(1, 4)) == ExactPolynomial([0, -1, 0, 1])
    for n in (2, 5, 9):
        assert ladder_poly(n, Fraction(0)) == ExactPolynomial.power(n)


def test_integer_ladder_poly_matches_factor_by_factor_product():
    # d = 0, negative d, and denominators that share factors with the
    # ladder sums e_j, which the one gcd(e_j, den^j) per coefficient cancels
    ds = [Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(9, 4),
          Fraction(5, 2 ** 40), Fraction(-(10 ** 30) + 1, 10 ** 12),
          Fraction(1, 2), Fraction(-5, 6), Fraction(7, 30),
          Fraction(-1, 10 ** 6)]
    for n in range(1, 41):
        for d in ds:
            poly = ladder_poly(n, d)
            assert poly == factor_by_factor_ladder_poly(n, d), (n, d)
            for c in poly.coefficients:
                assert_canonical(c)


@pytest.mark.parametrize("n", range(1, 13))
def test_raw_polynomials_are_canonical_and_trimmed(n):
    # ladder_poly and the recurrence build their results without
    # ExactPolynomial's coercion; passing them through it changes nothing
    polys = [ladder_poly(n, d) for d in (Fraction(0), Fraction(-3, 7),
                                         Fraction(5, 2 ** 40))]
    if n >= 2:
        polys += [char_poly_tridiagonal(n, model, p) for model in ModelId
                  for p in (Fraction(0), Fraction(1, 2), Fraction(3, 7))]
    for p in polys:
        assert p.coefficients == ExactPolynomial(list(p.coefficients)) \
            .coefficients
        assert p.degree == n and p.is_monic
        for c in p.coefficients:
            assert_canonical(c)


def _float_ladder_roots(n: int, d: Fraction) -> tuple[complex, ...]:
    """Reference roots of the ladder, read through float(d) and Fraction
    comparisons: sqrt(|d|) in floats, or for a nonzero |d| below the normal
    floats from an integer square root of |d| * 4^s."""
    size = abs(float(d))
    if size >= sys.float_info.min or d == 0:
        unit = math.sqrt(size)
    else:
        s = (130 - abs(d.numerator).bit_length()
             + d.denominator.bit_length()) // 2
        unit = math.ldexp(math.isqrt(math.floor(abs(d) * 4 ** s)), -s)
    steps = [m * unit + 0.0 for m in range(1 - n, n, 2)]
    return tuple(complex(x, 0.0) if d >= 0 else complex(0.0, x)
                 for x in steps)


_LADDER_D = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_value=0, max_denominator=10 ** 6),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
    st.builds(lambda k, sign: Fraction(sign, 10 ** k),
              st.integers(1, 450), st.sampled_from([1, -1])))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), _LADDER_D)
def test_ladder_against_a_fraction_reference(n, d):
    roots = ladder_roots(n, d)
    ref = _float_ladder_roots(n, d)
    assert [(repr(r.real), repr(r.imag)) for r in roots] == \
        [(repr(r.real), repr(r.imag)) for r in ref], (n, d)
    assert ladder_poly(n, d) == factor_by_factor_ladder_poly(n, d), (n, d)


def test_ladder_roots_below_the_normal_floats():
    # d = 1 - z^2 ~ 2e-448 rounds to the float 0.0; its roots +-2 sqrt(d)
    # ~ +-2.83e-224 are normal floats and must not collapse to the EP
    z = 1 - Fraction(1, 10 ** 448)
    d = _checked_d(3, ModelId.BH, z)
    assert d > 0 and float(d) == 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        root = float(2 * Decimal(d.numerator).sqrt()
                     / Decimal(d.denominator).sqrt())
    (report,) = reality_scan(3, ModelId.BH, [z])
    assert report.roots[1] == 0j
    assert report.roots[0].real == pytest.approx(-root, rel=1e-12)
    assert report.roots[2].real == pytest.approx(root, rel=1e-12)
    assert report.min_pair_gap > 0
    # d < 0 just past the EP: the same roots, imaginary
    assert ladder_roots(3, -d) == tuple(
        complex(0.0, r.real) for r in report.roots)


def test_ladder_roots_real_imaginary_and_zero():
    assert ladder_roots(3, Fraction(1, 4)) == (-1 + 0j, 0j, 1 + 0j)
    assert ladder_roots(2, Fraction(-4)) == (-2j, 2j)
    assert ladder_roots(4, Fraction(9, 4)) == (-4.5, -1.5, 1.5, 4.5)
    for n, d in ((4, Fraction(0)), (5, Fraction(0)), (3, Fraction(-1)),
                 (5, Fraction(1, 9))):
        roots = ladder_roots(n, d)
        assert list(roots) == sorted(roots, key=lambda r: (r.real, r.imag))
        # no -0.0 may reach text or JSON output
        for r in roots:
            for part in (r.real, r.imag):
                assert math.copysign(1.0, part) == 1.0 or part != 0


def test_ladder_proof_reads_jacobi_data_at_degree_plus_one_points(
        monkeypatch):
    # the proof reads jacobi_data at exactly p = 0..D, D = n for BH and
    # n // 2 for AO (most of them outside the domain), and a fault in its
    # data at any single one of those p fails the proof
    original = models.jacobi_data
    reads, fault_at = [], []

    def spy(n, model, p):
        reads.append(p)
        d, b = original(n, model, p)
        return (d, [b[0] + 1] + b[1:]) if fault_at == [p] else (d, b)

    monkeypatch.setattr(models, "jacobi_data", spy)
    for n in range(2, 13):
        for model, top in ((ModelId.BH, n), (ModelId.AO, n // 2)):
            points = [Fraction(p) for p in range(top + 1)]
            reads.clear()
            spectra._prove_ladder(n, model)
            assert reads == points, (n, model)
            for p in points:
                fault_at[:] = [p]
                spectra._prove_ladder.cache_clear()
                with pytest.raises(StructureError, match=f" at {p}: "):
                    spectra._prove_ladder(n, model)
            fault_at.clear()


def _ao_domain_points(n):
    return [Fraction(0)] + [Fraction(1, j) for j in range(2, n // 2 + 2)]


def test_ladder_holds_on_the_whole_parameter_domain():
    # The recurrence polynomial has degree <= N in z (diagonal linear in z,
    # couplings constant), and for AO degree <= N // 2 in s = 1 - damping
    # (the diagonal is constant and only the products of paired couplings,
    # -k(N-k)s, enter).  The ladder has the same degrees in z and in s, so
    # equality at N + 1 values of z, and at N // 2 + 1 values of lambda with
    # distinct damping, is equality as polynomials: the factorization holds
    # for every z and every lambda.  damping is strictly increasing on
    # lambda >= 0, so distinct lambda there give distinct s.
    for n in range(2, 17):
        for z in range(n + 1):
            assert char_poly_tridiagonal(n, ModelId.BH, z) == \
                ladder_poly(n, _checked_d(n, ModelId.BH, z)), (n, z)
        lams = _ao_domain_points(n)
        assert len({models.damping(n, lam) for lam in lams}) == n // 2 + 1
        for lam in lams:
            assert char_poly_tridiagonal(n, ModelId.AO, lam) == \
                ladder_poly(n, _checked_d(n, ModelId.AO, lam)), (n, lam)


def _sympy_model(sp, n, model, param):
    """The model Hamiltonian written out from its definition in sympy, with
    the AO damping summed here rather than taken from ``models``."""
    h = sp.zeros(n, n)
    if model is ModelId.BH:
        for k in range(n):
            h[k, k] = sp.I * (2 * k - n + 1) * param
        for k in range(1, n):
            h[k - 1, k] = h[k, k - 1] = sp.sqrt(k * (n - k))
        return h
    s = param  # 1 - damping
    for k in range(n):
        h[k, k] = 2 * k - n + 1
    for k in range(1, n):
        h[k - 1, k] = sp.sqrt(k * (n - k) * s)
        h[k, k - 1] = -sp.sqrt(k * (n - k) * s)
    return h


def _sympy_ladder(sp, e, n, d):
    return e ** (n % 2) * sp.prod(
        [e ** 2 - (n - 1 - 2 * k) ** 2 * d for k in range(n // 2)])


def test_ladder_factorization_against_sympy_oracle():
    sp = pytest.importorskip("sympy")
    e, z = sp.symbols("E z")
    s = sp.symbols("s", positive=True)
    for n in range(2, 7):
        for model, param, d in ((ModelId.BH, z, 1 - z ** 2),
                                (ModelId.AO, s, 1 - s)):
            h = _sympy_model(sp, n, model, param)
            assert sp.expand(h.charpoly(e).as_expr()
                             - _sympy_ladder(sp, e, n, d)) == 0, (n, model)


def test_ladder_poly_and_roots_against_sympy_oracle():
    sp = pytest.importorskip("sympy")
    e = sp.symbols("E")
    cases = ((ModelId.BH, Fraction(1, 2)), (ModelId.BH, Fraction(5, 3)),
             (ModelId.AO, Fraction(1, 8)), (ModelId.AO, Fraction(3, 7)))
    for n in range(2, 7):
        for model, param in cases:
            p = sp.Rational(param.numerator, param.denominator)
            if model is ModelId.AO:  # p becomes 1 - damping
                k = n // 2
                p = 1 - (p if k == 1 else sum(p ** j for j in range(1, k)))
            h = _sympy_model(sp, n, model, p)
            cp = sp.Poly(h.charpoly(e).as_expr(), e)
            ours = ladder_poly(n, _checked_d(n, model, param))
            assert [sp.Rational(str(c.as_gaussian().re))
                    for c in reversed(ours.coefficients)] == cp.all_coeffs()
            assert all(c.as_gaussian().im == 0 for c in ours.coefficients)
            want = sorted((complex(r) for r, mult in sp.roots(cp).items()
                           for _ in range(mult)),
                          key=lambda r: (round(r.real, 9), round(r.imag, 9)))
            got = ladder_roots(n, _checked_d(n, model, param))
            assert len(got) == n
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, \
                (n, model, param)


@pytest.mark.parametrize("target", ["ladder_poly", "ladder_d"])
def test_perturbed_ladder_raises_structure_error(monkeypatch, target):
    original = getattr(spectra, target)
    if target == "ladder_poly":
        perturbed = lambda n, d: original(n, d) + 1
    else:
        perturbed = lambda model, p: original(model, p) + Fraction(1, 7)
    monkeypatch.setattr(spectra, target, perturbed)
    with pytest.raises(StructureError):
        sample_path(1, 4, [Fraction(-1, 4)])
    with pytest.raises(StructureError):
        sample_path(2, 3, [Fraction(0)])
    with pytest.raises(StructureError):
        reality_scan(4, ModelId.AO, [Fraction(1, 8)])
    with pytest.raises(StructureError):
        reality_scan(5, ModelId.BH, [Fraction(1, 2)])


def test_perturbed_jacobi_data_fails_the_proof(monkeypatch):
    original = models.jacobi_data

    def perturbed(n, model, param):
        d, b = original(n, model, param)
        return d, [2 * b[0]] + b[1:]

    monkeypatch.setattr(models, "jacobi_data", perturbed)
    for _ in range(2):  # a failed proof is not cached
        with pytest.raises(StructureError):
            sample_path(1, 4, [Fraction(-1, 4)])
        with pytest.raises(StructureError):
            sample_path(3, 5, [Fraction(1, 8)])
        with pytest.raises(StructureError):
            reality_scan(4, ModelId.AO, [Fraction(1, 8)])
        with pytest.raises(StructureError):
            reality_scan(5, ModelId.BH, [Fraction(1, 2)])
    monkeypatch.undo()
    (report,) = reality_scan(5, ModelId.BH, [Fraction(1, 2)])
    assert report.roots == ladder_roots(5, Fraction(3, 4))


# ---------------------------------------------------------------------------
# root finder
# ---------------------------------------------------------------------------

def test_find_roots_quadratic():
    roots = find_roots(FloatPolynomial((-1, 0, 1)))
    assert len(roots) == 2
    assert abs(roots[0] - (-1)) <= 1e-12
    assert abs(roots[1] - 1) <= 1e-12


def test_find_roots_triple_root_residual_criterion():
    p = FloatPolynomial((0, 0, 0, 1))  # E^3
    tol = 1e-12
    roots = find_roots(p, tol=tol)
    scale = 1 + sum(abs(c) for c in p.coefficients)
    for r in roots:
        assert abs(r) ** 3 <= tol * scale * (1 + 1e-9)


def test_find_roots_backward_error_criterion_at_shifted_triple_root():
    p = FloatPolynomial((-1, 3, -3, 1))  # (E - 1)^3
    tol = 1e-12
    for r in find_roots(p, tol=tol):
        size = 1 + sum(abs(c) * abs(r) ** k
                       for k, c in enumerate(p.coefficients))
        assert abs(((r - 1) ** 3)) <= tol * size * (1 + 1e-6)


# Aberth used to hit its iteration cap at every N >= 20; the loss of
# accuracy with N is the conditioning of the ladder's polynomial
@pytest.mark.parametrize("n", [2, 8, 20, 24, 28, 32, 40])
def test_find_roots_converges_to_the_ladder_at_large_n(n):
    cases = ((ModelId.BH, Fraction(1, 2)), (ModelId.BH, Fraction(9, 10)),
             (ModelId.BH, Fraction(1)), (ModelId.AO, Fraction(1, 8)),
             (ModelId.AO, Fraction(1, 4)), (ModelId.AO, Fraction(0)))
    for model, param in cases:
        p = FloatPolynomial.from_exact(char_poly_tridiagonal(n, model, param))
        found = sorted(find_roots(p, tol=1e-10), key=lambda r: r.real)
        ladder = ladder_roots(n, _checked_d(n, model, param))
        dev = max(abs(a - b) for a, b in zip(found, ladder))
        assert dev <= 1e-8 * (n - 1), (model, param, dev)


def test_find_roots_half_integer():
    roots = find_roots(FloatPolynomial((-0.75, 0, 1)))
    assert abs(roots[0] + math.sqrt(3) / 2) <= 1e-12
    assert abs(roots[1] - math.sqrt(3) / 2) <= 1e-12


def test_find_roots_synthetic_oracle():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 7)
        roots_exact = rng.sample(range(-20, 21), n)  # distinct integers
        coeffs = np.poly([complex(r) for r in roots_exact])  # descending
        p = FloatPolynomial(tuple(coeffs[::-1]))
        found = sorted(find_roots(p), key=lambda z: z.real)
        for got, want in zip(found, sorted(roots_exact)):
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_find_roots_agrees_with_companion_eigenvalues():
    p = char_poly_tridiagonal(8, ModelId.BH, Fraction(1, 2))
    fp = FloatPolynomial.from_exact(p)
    mine = np.array(find_roots(fp))
    numpy_roots = np.sort_complex(np.roots(np.array(fp.coefficients[::-1])))
    assert np.max(np.abs(np.sort_complex(mine) - numpy_roots)) <= 1e-8


# roots of a monic polynomial of degree 1..12: distinct small integers,
# conjugate pairs a +- bi off the real axis, and at most one doubled integer
_ROOTS = st.tuples(
    st.sets(st.integers(-6, 6), max_size=6),
    st.sets(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=2),
    st.none() | st.integers(-6, 6),
).map(lambda t: ([complex(r) for r in t[0] if r != t[2]]
                 + [complex(a, s * b) for a, b in t[1] for s in (1, -1)],
                 t[2])).filter(lambda t: t[0] or t[1] is not None)


def _nearest(roots, r, m):
    return sorted(roots, key=lambda x: abs(x - r))[:m]


@settings(max_examples=100, deadline=None)
@given(_ROOTS)
def test_hypothesis_find_roots_matches_numpy_roots(roots):
    simple, doubled = roots
    exact = simple + ([] if doubled is None else [complex(doubled)] * 2)
    coeffs = np.poly(exact)  # descending
    p = FloatPolynomial(tuple(complex(c) for c in coeffs[::-1]))
    tol = 1e-12
    found = find_roots(p, tol=tol)
    assert len(found) == len(exact)
    for r in found:
        size = 1 + sum(abs(c) * abs(r) ** k
                       for k, c in enumerate(p.coefficients))
        value = sum(c * r ** k for k, c in enumerate(p.coefficients))
        assert abs(value) <= tol * size * (1 + 1e-6)
    oracle = np.roots(coeffs)
    for r in simple:
        (mine,), (theirs,) = _nearest(found, r, 1), _nearest(oracle, r, 1)
        assert abs(mine - theirs) <= 1e-8 * (1 + abs(r)), r
    if doubled is not None:
        # a double root moves by the square root of a perturbation of the
        # coefficients, so the pair's mean is compared at the square root
        # of the tolerance
        mine = sum(_nearest(found, doubled, 2)) / 2
        theirs = sum(_nearest(oracle, doubled, 2)) / 2
        assert abs(mine - theirs) <= 1e-4 * (1 + abs(doubled)), doubled


def test_sorted_roots_orders_a_conjugate_pair_imag_ascending():
    z = [1 + 2j, 3 + 0j, 1 - 2j, -1 + 0.5j, -1 - 0.5j, 0j]
    assert spectra._sorted_roots(z) == [-1 - 0.5j, -1 + 0.5j, 0j,
                                        1 - 2j, 1 + 2j, 3 + 0j]
    arr = np.array(z)
    assert spectra._sorted_roots(z) == list(
        arr[np.lexsort((arr.imag, arr.real))])


def test_find_roots_convergence_error_best_is_sorted():
    p = FloatPolynomial.from_exact(
        char_poly_tridiagonal(8, ModelId.BH, Fraction(1, 2)))
    with pytest.raises(ConvergenceError) as err:
        find_roots(p, max_iter=2)
    best = err.value.best
    assert len(best) == 8
    assert best == sorted(best, key=lambda r: (r.real, r.imag))


def test_find_roots_where_the_residual_modulus_leaves_the_floats():
    # at the starting point both parts of p(z) are finite floats, but its
    # modulus is not
    c = 6.317536788548002e307 + 3.1693612799197204e306j
    (root,) = find_roots(FloatPolynomial((c, 1)))
    assert abs(root + c) <= 1e-15 * abs(c)


def test_find_roots_is_deterministic():
    p = FloatPolynomial.from_exact(
        char_poly_tridiagonal(6, ModelId.AO, Fraction(1, 8)))
    assert find_roots(p) == find_roots(p)


def test_find_roots_convergence_error_carries_best():
    with pytest.raises(ConvergenceError) as err:
        find_roots(FloatPolynomial((-1, 0, 1)), max_iter=1)
    assert len(err.value.best) == 2


def test_find_roots_rejects_bad_tol():
    with pytest.raises(ValueError):
        find_roots(FloatPolynomial((-1, 0, 1)), tol=0)


def test_float_polynomial_validation():
    with pytest.raises(ValueError):
        FloatPolynomial((1, 2))  # not monic
    with pytest.raises(ValueError):
        FloatPolynomial((1,))  # degree 0
    with pytest.raises(ValueError):
        FloatPolynomial.from_exact(ExactPolynomial([1, 2]))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_reality_scan_bh():
    reports = reality_scan(8, ModelId.BH,
                           [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    assert [r.param for r in reports] == [0.25, 0.5, 0.75]
    for r in reports:
        scale = 1 + max(abs(c) for c in
                        char_poly_tridiagonal(8, ModelId.BH,
                                              Fraction(r.param).limit_denominator())
                        .to_complex_coefficients())
        assert r.max_imag <= 1e-8 * scale
        assert len(r.roots) == 8
        assert abs(sum(r.roots)) <= 1e-10 * scale  # traceless: roots sum to 0


def test_reality_scan_2x2_roots():
    (report,) = reality_scan(2, ModelId.BH, [Fraction(1, 2)])
    assert abs(report.roots[0] + math.sqrt(3) / 2) <= 1e-9
    assert abs(report.roots[1] - math.sqrt(3) / 2) <= 1e-9


def test_reality_scan_ao():
    (report,) = reality_scan(4, ModelId.AO, [Fraction(1, 8)])
    assert report.max_imag <= 1e-8
    assert report.model is ModelId.AO


def test_degeneracy_scan_shrinks_toward_ep():
    zs = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(15, 16)]
    for n in (4, 8):
        gaps = [r.max_pair_gap for r in degeneracy_scan(n, ModelId.BH, zs)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
    lams = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    gaps = [r.max_pair_gap for r in degeneracy_scan(4, ModelId.AO, lams)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# ladder steps d of every kind: positive, negative, zero, below the normal
# floats, and near the top of the float range
_GAP_GRID_D = [Fraction(1), Fraction(3, 7), Fraction(-1), Fraction(-5, 2),
               Fraction(0), Fraction(1e-300), Fraction(-1e-310),
               Fraction(1e300), Fraction(-1e300), Fraction(2) ** -1070,
               -Fraction(2) ** -1070]


def test_report_gaps_match_all_pairs(monkeypatch):
    # the report reads its gaps from the sorted ladder; numpy's all-pairs
    # arrays over the same roots are the oracle, compared bit for bit
    d = None
    monkeypatch.setattr(spectra, "certified_spectrum",
                        lambda n, model, p: (None, ladder_roots(n, d)))
    for n in range(2, 61):
        for d in _GAP_GRID_D:
            (report,) = reality_scan(n, ModelId.BH, [0])
            arr = np.array(report.roots)
            gaps = np.abs(arr[:, None] - arr[None, :])[np.triu_indices(n, k=1)]
            assert (report.max_imag, report.max_pair_gap,
                    report.min_pair_gap) == (
                float(np.max(np.abs(arr.imag))), float(np.max(gaps)),
                float(np.min(gaps))), (n, d)


def test_degeneracy_scan_at_the_ep():
    (report,) = degeneracy_scan(4, ModelId.BH, [Fraction(1)])
    # d = 0: the ladder collapses to exact zeros
    assert report.roots == (0j,) * 4
    assert report.max_pair_gap == 0


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_condition_2x2_reference():
    entries = {e.family: e for e in condition_report([2])}
    assert abs(entries["q-bh"].kappa - 3) <= 1e-12
    assert abs(entries["q-ao"].kappa - 3) <= 1e-12


def test_condition_report_sees_a_patched_transition(monkeypatch):
    # the families look their constructors up on ``models`` when called
    clean = {e.family: e.kappa for e in condition_report([3])}
    monkeypatch.setattr(models, "transition",
                        perturb_constructor(models.transition))
    patched = {e.family: e.kappa for e in condition_report([3])}
    assert patched["q-bh"] != clean["q-bh"]
    assert patched["s-rc"] == clean["s-rc"]


def test_condition_report_holds_one_dimension_at_a_time():
    # as run_suite: each N from emptied caches; the entries keep their
    # family-first order
    models.transition(20, ModelId.BH)
    entries = condition_report(range(2, 8))
    after_range = model_cache_infos()
    separate = [condition_report([n]) for n in range(2, 8)]
    assert after_range == model_cache_infos()
    assert after_range["transition"].currsize == 2
    assert after_range["transition_inverse"].currsize == 2
    assert after_range["intertwiner"].currsize == 1
    families = ["q-bh", "q-ao", "s-rc"]
    assert entries == sorted((e for part in separate for e in part),
                             key=lambda e: families.index(e.family))


def test_condition_identity_sanity():
    # kappa of the identity is N: |I|_F * |I^-1|_F = sqrt(N)*sqrt(N)
    for n in (2, 5):
        ident = ExactMatrix.identity(n)
        kappa = ident.frobenius_norm() * ident.frobenius_norm()
        assert abs(kappa - n) <= 1e-12


def test_condition_grows_with_dimension():
    entries = condition_report(range(2, 13))
    by_family = {}
    for e in entries:
        by_family.setdefault(e.family, []).append(e.kappa)
    for family in ("q-bh", "q-ao"):
        kappas = by_family[family]
        assert all(a < b for a, b in zip(kappas, kappas[1:]))
    assert by_family["q-bh"][-1] > by_family["q-bh"][0]
