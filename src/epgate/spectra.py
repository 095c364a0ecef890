"""Numeric layer: tridiagonal characteristic polynomials, closed-form
spectra, polynomial root finding, spectral-reality and degeneracy-approach
reports, conditioning.

The characteristic polynomial of a tridiagonal matrix is computed exactly
through the three-term minor recurrence

    p_k(E) = (E - d_(k-1)) p_(k-1)(E) - b_(k-1) p_(k-2)(E),

with the diagonal d_k and the products b_k = sub*sup of paired couplings.
One routine, ``_recurrence``, runs it fraction-free on the integer terms
(radicand, re, im, den) of d_k and b_k: scaled by one integer so that every
term is a Gaussian integer, on integer coefficient lists per radicand, with
one division per coefficient at the end.  It has two readers:

* ``char_poly_tridiagonal`` reads d_k and b_k of a model Hamiltonian from
  its checked parameter (``models.jacobi_data``): Gaussian rationals, so
  every radicand is 1 and neither a matrix nor a radical is built.
* ``_tridiagonal_char_poly`` reads them from a matrix's own band, for the
  checks that must see what was built -- a similarity-transformed family or
  a constructed EP matrix -- and returns the part off the band beside the
  polynomial, zero exactly for a tridiagonal matrix.

That is O(N^2), against O(N^4) for the dense Faddeev-LeVerrier in
``matrices``, which stays the general routine and the tests' reference.

Both families are the spin-(N-1)/2 representation of sl(2):
H_BH(z) = 2(J_x + i z J_z) and H_AO(lambda) = 2(J_z + i c J_y) with
c = sqrt(1 - damping).  So each polynomial is the ladder

    prod_k (E^2 - (N-1-2k)^2 d),  times E for odd N,

with d = 1 - z^2 (BH) or d = damping(lambda) (AO), and the exceptional
point is exactly d = 0.  The ladder's coefficient of E^(N-2j) is
e_j (-d)^j, with e_j the elementary symmetric sums of the (N-1-2k)^2 from a
per-N integer table.  Each entry point (``char_poly_tridiagonal``,
``checked_ladder_d``, ``certified_spectrum``) checks its parameter once, by
``models.checked_parameter``, and below it everything reads the checked
value p: z for BH, damping for AO.  In p both polynomials have degree
<= D (N for BH, N // 2 for AO), so the factorization is proved once per
(N, model) for every parameter (``_prove_ladder``) by comparing them at
zero tolerance at the D + 1 points p = 0..D, in the domain or not.  Every
reported spectrum is then the ladder at its own d, and its roots are the
roundings of (N-1-2k) sqrt(d), real exactly when d >= 0, which holds on
the whole model domain (|z| <= 1, lambda >= 0).

``find_roots`` (a simultaneous Aberth-Ehrlich iteration from a fixed,
deterministic circle of starting points, in pure Python) is the independent
float cross-check of the closed form: identical inputs give bit-identical
roots.  No check or CLI path runs it, and the module imports only the
standard library.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, hypot, inf, isqrt, lcm, ldexp, pi, sqrt
from sys import float_info

from . import models
from .matrices import ExactMatrix, ExactPolynomial, StructureError
from .models import DomainError, ModelId
from .radicals import ZERO, RadicalSum, radicand_product


class ConvergenceError(RuntimeError):
    """Root iteration hit the cap; ``best`` holds the last iterate."""

    def __init__(self, message: str, best: list[complex]):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FloatPolynomial:
    """Monic polynomial with complex double coefficients, degree ascending."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("need degree >= 1")
        if self.coefficients[-1] != 1:
            raise ValueError("coefficients must be monic")

    @classmethod
    def from_exact(cls, p: ExactPolynomial) -> "FloatPolynomial":
        if not p.is_monic:
            raise ValueError("exact polynomial is not monic")
        return cls(tuple(p.to_complex_coefficients()))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class SpectrumReport:
    N: int
    model: ModelId
    param: float
    roots: tuple[complex, ...]
    max_imag: float
    max_pair_gap: float
    min_pair_gap: float


@dataclass(frozen=True)
class ConditionEntry:
    """Frobenius condition estimate kappa = |Q|_F * |Q^-1|_F for one
    transition-matrix family at one dimension."""

    N: int
    family: str
    kappa: float


def char_poly_tridiagonal(n: int, model: ModelId, param) -> ExactPolynomial:
    """Exact monic characteristic polynomial of a model Hamiltonian, by the
    recurrence on its tridiagonal data read from the checked parameter
    (``models.jacobi_data``); no matrix is built."""
    return _jacobi_char_poly(n, model,
                             models.checked_parameter(n, model, param))


def _jacobi_char_poly(n: int, model: ModelId, p: Fraction) -> ExactPolynomial:
    """The recurrence on ``models.jacobi_data`` at the checked value p,
    looked up when called, so a patched one is the one read."""
    d, b = models.jacobi_data(n, model, p)
    return _recurrence([RadicalSum.of(x).integer_terms() for x in d],
                       [RadicalSum.of(x).integer_terms() for x in b])


def _tridiagonal_char_poly(h: ExactMatrix
                           ) -> tuple[ExactPolynomial, ExactMatrix]:
    """The recurrence on the band of a matrix, whose entries are any radical
    sums, for checks that must see what a constructor or a similarity built,
    and ``off_band``: the matrix with its band zeroed, exactly zero iff the
    matrix is tridiagonal (only then is the polynomial the matrix's)."""
    rows = h.rows()
    n = len(rows)
    off_band = ExactMatrix._raw(tuple(
        tuple(ZERO if abs(i - j) <= 1 else e for j, e in enumerate(row))
        for i, row in enumerate(rows)))
    return _recurrence(
        [rows[k][k].integer_terms() for k in range(n)],
        [(rows[k - 1][k] * rows[k][k - 1]).integer_terms()
         for k in range(1, n)]), off_band


def _recurrence(d, b) -> ExactPolynomial:
    """p_n of p_k = (E - d_(k-1)) p_(k-1) - b_(k-1) p_(k-2), fraction-free,
    for d_k and b_k given as integer terms (radicand, re, im, den)."""
    n = len(d)
    # with s*d_k and s^2*b_k Gaussian-integer terms, q_k(F) = s^k p_k(F/s)
    # is q_k = (F - s d_k) q_(k-1) - s^2 b_k q_(k-2) in integers, and p_n's
    # coefficient j is q_n's over s^(n-j); q_k is {radicand: (re, im) lists}
    s = lcm(*(den for terms in d + b for *_, den in terms))
    prev2, prev1 = {}, {1: ([1], [0])}
    for k, (dk, bk) in enumerate(zip(d, [()] + b)):
        nxt = {m: ([0] + re, [0] + im) for m, (re, im) in prev1.items()}
        for terms, scale, q in ((dk, s, prev1), (bk, s * s, prev2)):
            for m1, xr, xi, den in terms:
                xr, xi = xr * (scale // den), xi * (scale // den)
                for m2, (re, im) in q.items():
                    key, g = radicand_product(m1, m2)
                    acc = nxt.get(key)
                    if acc is None:
                        acc = nxt[key] = ([0] * (k + 2), [0] * (k + 2))
                    ar, ai = acc
                    cr, ci = xr * g, xi * g
                    for j, (vr, vi) in enumerate(zip(re, im)):
                        ar[j] -= cr * vr - ci * vi
                        ai[j] -= cr * vi + ci * vr
        prev1, prev2 = nxt, prev1
    # from_integer_sums is canonical and the leading coefficient is 1
    return ExactPolynomial._raw(tuple(
        RadicalSum.from_integer_sums(
            {m: (re[j], im[j], s ** (n - j)) for m, (re, im) in prev1.items()})
        for j in range(n + 1)))


def find_roots(p: FloatPolynomial, tol: float = 1e-12,
               max_iter: int = 1000) -> list[complex]:
    """All roots of a monic polynomial by simultaneous Aberth-Ehrlich
    iteration, in pure Python: complex Horner evaluation on a list of
    iterates, each step computed from the previous list as a whole.

    Starting points sit on a fixed circle of Fujiwara's radius
    2 * max_k |c_(N-k)|^(1/k), which encloses every root, with a fixed
    angular offset, so results are deterministic.  Convergence is declared
    when every iterate has |p(z)| <= tol * (1 + sum_k |c_k| |z|^k): a
    backward error relative to the polynomial's own size at z, with the
    1 + keeping it reachable at a root of p = E^N.  This also covers
    multiple roots (no separation is claimed for them).  Returns roots
    sorted by (real, imag).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    deg = p.degree
    coeffs = p.coefficients[::-1]  # descending, for Horner
    deriv = [c * (deg - k) for k, c in enumerate(coeffs[:-1])]
    sizes = [abs(c) for c in coeffs]
    radius = 2.0 * max(sizes[k] ** (1.0 / k) for k in range(1, deg + 1))
    z = [cmath.rect(radius, 2.0 * pi * k / deg + 0.4) for k in range(deg)]
    best, best_err = z, inf
    for _ in range(max_iter):
        pv = [_horner(coeffs, x) for x in z]
        # hypot, not abs: abs of a complex raises OverflowError where the
        # modulus leaves the floats
        err = max(hypot(v.real, v.imag)
                  / (1.0 + _horner(sizes, hypot(x.real, x.imag)))
                  for v, x in zip(pv, z))
        if err < best_err:
            best, best_err = z, err
        if err <= tol:
            return _sorted_roots(z)
        step = []
        for i, (x, v) in enumerate(zip(z, pv)):
            newton = v / (_horner(deriv, x) or 1e-300)
            # the diagonal enters as 1.0 and is taken off again, the rounding
            # the update has always had: at N = 40 the ladder's roots come
            # out within 7 % of the large-N test's bound
            repulsion = sum(1.0 / (x - y) if j != i else 1.0
                            for j, y in enumerate(z)) - 1.0
            step.append(x - newton / (1.0 - newton * repulsion or 1.0))
        z = step
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (best backward error "
        f"{best_err:.3e})", _sorted_roots(best))


def _horner(coeffs, x):
    y = 0
    for c in coeffs:
        y = y * x + c
    return y


def _sorted_roots(z: list[complex]) -> list[complex]:
    return sorted(z, key=lambda r: (r.real, r.imag))


def ladder_d(model: ModelId, p: Fraction) -> Fraction:
    """The square d of the ladder step at the checked value p of
    ``models.checked_parameter``: 1 - z^2 for BH (p = z), damping(lambda)
    for AO (p = damping); d = 0 exactly at the EP.  It checks nothing, so
    the ladder proof can read it outside the model domain."""
    if model is ModelId.AO:
        return p
    a, q = p.numerator, p.denominator
    return Fraction(q * q - a * a, q * q)


@lru_cache(maxsize=None)
def _ladder_sums(n: int) -> tuple[int, ...]:
    """e_0..e_(n//2): the elementary symmetric sums of the squares
    (n-1-2k)^2, k < n // 2."""
    e = [1]
    for k in range(n // 2):
        m = (n - 1 - 2 * k) ** 2
        e = [a + m * b for a, b in zip(e + [0], [0] + e)]
    return tuple(e)


def ladder_poly(n: int, d: Fraction) -> ExactPolynomial:
    """prod_k (E^2 - (n-1-2k)^2 d) over k < n // 2, times E for odd n:
    coefficient n - 2j is e_j * (-d)^j, canonical with one gcd(e_j, den^j)
    since num^j/den^j, with -d = num/den, is in lowest terms already."""
    out = [ZERO] * (n + 1)
    num, den = -d.numerator, d.denominator
    num_j, den_j = 1, 1
    for j, e in enumerate(_ladder_sums(n)):
        if not num_j:
            break
        g = gcd(e, den_j)
        out[n - 2 * j] = r = object.__new__(RadicalSum)
        r._terms = ((1, e // g * num_j, 0, den_j // g),)
        num_j, den_j = num_j * num, den_j * den
    return ExactPolynomial._raw(tuple(out))


def ladder_roots(n: int, d: Fraction) -> tuple[complex, ...]:
    """The roots (n-1-2k) sqrt(d), k = 0..n-1, rounded to floats: real for
    d >= 0, i (n-1-2k) sqrt(-d) for d < 0.  Sorted by (real, imag), with
    every zero part +0.0.  A |d| beyond the float range raises
    ``DomainError``; a nonzero |d| below the normal floats (2.2e-308) is
    rooted from its numerator and denominator, so it does not round to the
    exceptional point's d = 0."""
    num, den = abs(d.numerator), d.denominator
    size = _float_size(d)
    if size >= float_info.min or not num:
        unit = sqrt(size)
    else:
        # isqrt of |d| * 4^s with about 130 bits, scaled back by 2^-s
        s = (130 - num.bit_length() + den.bit_length()) // 2
        unit = ldexp(isqrt((num << 2 * s) // den), -s)
    steps = [m * unit + 0.0 for m in range(1 - n, n, 2)]  # -0.0 + 0.0 = 0.0
    if d.numerator >= 0:
        return tuple([complex(x, 0.0) for x in steps])
    return tuple([complex(0.0, y) for y in steps])


def _float_size(d: Fraction) -> float:
    """|d| correctly rounded to a float, as float(d) is; a |d| beyond the
    float range raises ``DomainError``."""
    try:
        return abs(d.numerator) / d.denominator
    except OverflowError:
        raise DomainError("the ladder step sqrt(|d|) overflows a float "
                          "(|d| > 1.8e308)") from None


@lru_cache(maxsize=None)
def _prove_ladder(n: int, model: ModelId) -> None:
    """Prove, for every parameter at once, that the recurrence polynomial on
    ``models.jacobi_data`` is the ladder of ``ladder_d``; a mismatch raises
    ``StructureError`` and is not cached.

    One rule for both models: each side is a polynomial of degree <= D in
    the checked value p, with D = n for BH (the diagonal is linear in z,
    the couplings constant, and d = 1 - z^2 enters as (-d)^j, j <= n // 2)
    and D = n // 2 for AO (the diagonal is constant, the coupling products
    -k(n-k)(1 - p) enter at most n // 2 to a term, and d = p).  Two such
    polynomials that agree at the D + 1 points p = 0..D, in the domain or
    not, are equal at every z and every lambda.
    """
    top = n if model is ModelId.BH else n // 2  # D
    for p in map(Fraction, range(top + 1)):
        d = ladder_d(model, p)
        if _jacobi_char_poly(n, model, p) != ladder_poly(n, d):
            raise StructureError(
                f"{model.value} N={n} at {p}: the characteristic "
                f"polynomial is not the sl(2) ladder with d = {d}")


def checked_ladder_d(n: int, model: ModelId, param) -> Fraction:
    """``ladder_d`` at the parameter checked by ``models.checked_parameter``,
    after ``_prove_ladder`` (run once per (n, model); a failed proof raises
    ``StructureError``) and the float range of |d|: every error that
    ``certified_spectrum`` can raise at this parameter, raised without
    building the spectrum."""
    d = ladder_d(model, models.checked_parameter(n, model, param))
    _prove_ladder(n, model)
    _float_size(d)
    return d


def certified_spectrum(n: int, model: ModelId, param
                       ) -> tuple[ExactPolynomial, tuple[complex, ...]]:
    """The characteristic polynomial of a model Hamiltonian and its
    closed-form roots: ``ladder_poly`` and ``ladder_roots`` of
    ``checked_ladder_d``.  The polynomial is the recurrence's by
    ``_prove_ladder``."""
    d = checked_ladder_d(n, model, param)
    return ladder_poly(n, d), ladder_roots(n, d)


def spectrum_reports(n: int, model: ModelId,
                     params) -> Iterator[SpectrumReport]:
    """Spectrum reports at the parameters in the order given, each made when
    the next one is asked for, so a scan of any length holds one report.
    The gaps are read from the sorted ladder: the widest pair is the two
    ends, the closest is a pair of neighbours."""
    for p in map(models._as_fraction, params):
        _, roots = certified_spectrum(n, model, p)
        yield SpectrumReport(
            N=n, model=model, param=float(p), roots=roots,
            max_imag=max(abs(r.imag) for r in roots),
            max_pair_gap=abs(roots[-1] - roots[0]),
            min_pair_gap=min(abs(b - a) for a, b in zip(roots, roots[1:])))


def reality_scan(n: int, model: ModelId, params) -> list[SpectrumReport]:
    """Spectrum reports over a parameter list inside the real-spectrum
    regime; reports come back ordered by parameter value."""
    return list(spectrum_reports(
        n, model, sorted(map(models._as_fraction, params))))


def degeneracy_scan(n: int, model: ModelId, params) -> list[SpectrumReport]:
    """Spectrum reports along a parameter sequence approaching the
    exceptional point, in the order given; the max pairwise root gap is the
    quantity expected to shrink."""
    return list(spectrum_reports(n, model, params))


# (family, Q, Q^-1), each constructor looked up on ``models`` when called, so
# a patched one is the one measured.
_FAMILIES = (
    ("q-bh", lambda n: models.transition(n, ModelId.BH),
     lambda n: models.transition_inverse(n, ModelId.BH)),
    ("q-ao", lambda n: models.transition(n, ModelId.AO),
     lambda n: models.transition_inverse(n, ModelId.AO)),
    ("s-rc", lambda n: models.intertwiner(n),
     lambda n: models.intertwiner_inverse(n)),
)


def condition_report(n_values) -> list[ConditionEntry]:
    """Frobenius condition estimates for the three transition-matrix
    families, one entry per (family, N), N ascending within each family.

    Like ``verify.run_suite``, it runs dimension-major: before each N every
    ``models`` cache is emptied (``models.clear_caches``), so each dimension
    runs from cold caches, a range holds one dimension's matrices at a time,
    and a library caller's warm ``models`` caches are emptied too.  A
    stable sort by family restores the family-first order."""
    n_list = sorted(set(int(n) for n in n_values))
    out = []
    for n in n_list:
        if n < 2:
            raise DomainError(f"condition report needs N >= 2, got {n}")
        models.clear_caches()
        for family, fwd, inv in _FAMILIES:
            try:
                kappa = fwd(n).frobenius_norm() * inv(n).frobenius_norm()
            except OverflowError:
                raise DomainError(f"the Frobenius norms of {family} at N={n} "
                                  "overflow a float") from None
            out.append(ConditionEntry(N=n, family=family, kappa=kappa))
    order = {family: i for i, (family, _, _) in enumerate(_FAMILIES)}
    out.sort(key=lambda e: order[e.family])
    return out
