import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgate import models
from epgate.matrices import ExactMatrix, ExactPolynomial, StructureError
from epgate.models import ModelId
from epgate.spectra import (
    ConvergenceError,
    FloatPolynomial,
    char_poly_tridiagonal,
    condition_report,
    degeneracy_scan,
    find_roots,
    reality_scan,
)
from helpers import gaussian_tridiagonal_char_poly


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
    from epgate.spectra import _tridiagonal_char_poly
    for h in (models.bh_hamiltonian(n, z), models.ao_hamiltonian(n, lam)):
        assert _tridiagonal_char_poly(h) == gaussian_tridiagonal_char_poly(h)


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


def test_tridiagonal_rejects_dense_matrix():
    from epgate.spectra import _tridiagonal_char_poly
    with pytest.raises(StructureError):
        _tridiagonal_char_poly(models.bh_transition(3))


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


def test_degeneracy_scan_at_the_ep():
    (report,) = degeneracy_scan(4, ModelId.BH, [Fraction(1)])
    # multiple root: the residual criterion bounds |root|, not separation
    tol_scale = 1e-10 * 2
    assert report.max_pair_gap <= 2 * tol_scale ** (1 / 4)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_condition_2x2_reference():
    entries = {e.family: e for e in condition_report([2])}
    assert abs(entries["q-bh"].kappa - 3) <= 1e-12
    assert abs(entries["q-ao"].kappa - 3) <= 1e-12


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
