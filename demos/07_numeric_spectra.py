#!/usr/bin/env python3
# The numeric layer: exact characteristic polynomials, closed-form spectra
# with a floating-point cross-check, degeneracy approach, and conditioning
# of the transition matrices.

from fractions import Fraction

from epgate import (
    FloatPolynomial,
    ModelId,
    char_poly_tridiagonal,
    condition_report,
    degeneracy_scan,
    find_roots,
    reality_scan,
)

# Tridiagonality lets the exact characteristic polynomial come out of a
# three-term recurrence whose coefficients never leave the rationals.
p = char_poly_tridiagonal(8, ModelId.BH, Fraction(1, 2))
print([str(c) for c in p.coefficients])
print()

# Both families are the spin-(N-1)/2 representation of sl(2), so the
# polynomial is the ladder prod_k (E^2 - (N-1-2k)^2 d) with d = 1 - z^2: the
# roots are (N-1-2k) sqrt(d), real and evenly spaced for |z| <= 1.  Every
# report proves that factorization exactly before it rounds the roots; the
# Aberth iteration find_roots, run on the float coefficients, is the
# independent cross-check.
for report in reality_scan(8, ModelId.BH, [Fraction(1, 4), Fraction(1, 2),
                                           Fraction(3, 4)]):
    z = Fraction(report.param)
    aberth = find_roots(FloatPolynomial.from_exact(
        char_poly_tridiagonal(8, ModelId.BH, z)))
    dev = max(abs(a - b) for a, b in
              zip(sorted(aberth, key=lambda r: r.real), report.roots))
    print(f"z = {report.param}:  max|Im| = {report.max_imag:.2e},  "
          f"roots {[round(r.real, 4) for r in report.roots]},  "
          f"Aberth within {dev:.1e}")
print()

# Approaching the exceptional point the whole spectrum contracts: the
# largest pairwise eigenvalue gap shrinks monotonically to zero.
zs = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(15, 16)]
gaps = [r.max_pair_gap for r in degeneracy_scan(8, ModelId.BH, zs)]
for z, g in zip(zs, gaps):
    print(f"z = {str(z):>6}:  max pair gap {g:.4f}")
print()

lams = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
gaps = [r.max_pair_gap for r in degeneracy_scan(8, ModelId.AO, lams)]
for lam, g in zip(lams, gaps):
    print(f"lambda = {str(lam):>5}:  max pair gap {g:.4f}")
print()

# The price of the EP-adjacent basis: the transition matrices become
# severely ill-conditioned as the dimension grows, which is exactly why the
# identity checks run in exact arithmetic rather than floating point.
for entry in condition_report([2, 4, 6, 8, 10, 12]):
    if entry.family == "q-bh":
        print(f"kappa_F(Q_bh, N={entry.N:2d}) = {entry.kappa:.3e}")
