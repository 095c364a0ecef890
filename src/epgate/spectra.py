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
  its parameter (``models.jacobi_data``): Gaussian rationals, so every
  radicand is 1 and neither a matrix nor a radical is built.
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
per-N integer table.  That factorization is proved once per (N, model) for
the whole parameter domain (``_prove_ladder``): the recurrence polynomial
and the ladder are compared at zero tolerance at one more parameter value
than their common degree in the parameter.  Every reported spectrum is then
the ladder at its own d, and its roots are the roundings of
(N-1-2k) sqrt(d), real exactly when d >= 0, which holds on the whole model
domain (|z| <= 1, lambda >= 0).

``find_roots`` (a simultaneous Aberth-Ehrlich iteration from a fixed,
deterministic circle of starting points, in pure Python) is the independent
float cross-check of the closed form: identical inputs give bit-identical
roots.  No check or CLI path runs it, and the module imports only the
standard library.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, hypot, inf, isqrt, lcm, ldexp, pi, sqrt
from sys import float_info

from . import models
from .matrices import ExactMatrix, ExactPolynomial, StructureError
from .models import DomainError, ModelId
from .radicals import GaussianRational, RadicalSum, radicand_product

_ZERO = RadicalSum()


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
    recurrence on its tridiagonal data read from the parameter
    (``models.jacobi_data``); no matrix is built."""
    d, b = models.jacobi_data(n, model, param)
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
        tuple(_ZERO if abs(i - j) <= 1 else e for j, e in enumerate(row))
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


def ladder_d(n: int, model: ModelId, param) -> Fraction:
    """The square d of the ladder step: 1 - z^2 for BH, damping(lambda) for
    AO; d = 0 exactly at the EP.  n and the parameter are checked by
    ``models.checked_parameter``: for AO a lambda < 0 or past the domain
    edge raises."""
    x = models.checked_parameter(n, model, param)
    if model is ModelId.AO:
        return x
    p, q = x.numerator, x.denominator
    return Fraction(q * q - p * p, q * q)


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
    out = [_ZERO] * (n + 1)
    num, den = -d.numerator, d.denominator
    num_j, den_j = 1, 1
    for j, e in enumerate(_ladder_sums(n)):
        if not num_j:
            break
        # GaussianRational._make and RadicalSum._raw, written inline
        g = gcd(e, den_j)
        c = object.__new__(GaussianRational)
        c._re, c._im, c._den = e // g * num_j, 0, den_j // g
        out[n - 2 * j] = r = object.__new__(RadicalSum)
        r._terms = {1: c}
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
    try:
        size = num / den  # correctly rounded, as float(d) is
    except OverflowError:
        raise DomainError("the ladder step sqrt(|d|) overflows a float "
                          "(|d| > 1.8e308)") from None
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


def _proof_points(n: int, model: ModelId) -> list[Fraction]:
    """Where ``_prove_ladder`` compares the two polynomials: z = 0..n for
    BH; lambda = 0 and 1/j, j = 2..n//2 + 1, for AO, whose damping values
    are distinct and below 1, so each lies in the domain at every n."""
    if model is ModelId.BH:
        return [Fraction(z) for z in range(n + 1)]
    return [Fraction(0)] + [Fraction(1, j) for j in range(2, n // 2 + 2)]


@lru_cache(maxsize=None)
def _prove_ladder(n: int, model: ModelId) -> None:
    """Prove, for every parameter of the model's domain at once, that the
    recurrence polynomial (``char_poly_tridiagonal``) is the ladder of
    ``ladder_d``; a mismatch raises ``StructureError`` and is not cached.

    Each coefficient of the recurrence polynomial is a polynomial in the
    parameter.  For BH it has degree <= n in z: the diagonal is linear in z
    and the couplings are constant.  For AO it has degree <= n // 2 in
    s = 1 - damping: the diagonal is constant, and only the products
    -k(n-k)s of paired couplings enter, at most n // 2 of them in one term.
    The ladder's coefficient e_j (-d)^j, j <= n // 2, has the same bounds,
    with d = 1 - z^2 or d = 1 - s.  Two polynomials of degree <= D that
    agree at D + 1 points are equal, so agreement at the n + 1 values of z
    and the n // 2 + 1 distinct values of s of ``_proof_points`` is the
    identity at every z and every lambda.
    """
    for p in _proof_points(n, model):
        d = ladder_d(n, model, p)
        if char_poly_tridiagonal(n, model, p) != ladder_poly(n, d):
            raise StructureError(
                f"{model.value} N={n} at {p}: the characteristic "
                f"polynomial is not the sl(2) ladder with d = {d}")


def certified_spectrum(n: int, model: ModelId, param
                       ) -> tuple[ExactPolynomial, tuple[complex, ...]]:
    """The characteristic polynomial of a model Hamiltonian and its
    closed-form roots: ``ladder_poly`` and ``ladder_roots`` of ``ladder_d``
    at ``param``, which checks the dimension and the parameter.  The
    polynomial is the recurrence's by ``_prove_ladder``, run once per
    (n, model); a failed proof raises ``StructureError``."""
    d = ladder_d(n, model, param)
    _prove_ladder(n, model)
    return ladder_poly(n, d), ladder_roots(n, d)


def _spectrum_report(n: int, model: ModelId,
                     param: Fraction) -> SpectrumReport:
    """The gaps are read from the sorted ladder: the widest pair is the two
    ends, the closest is a pair of neighbours."""
    _, roots = certified_spectrum(n, model, param)
    return SpectrumReport(
        N=n, model=model, param=float(param), roots=roots,
        max_imag=max(abs(r.imag) for r in roots),
        max_pair_gap=abs(roots[-1] - roots[0]),
        min_pair_gap=min(abs(b - a) for a, b in zip(roots, roots[1:])))


def reality_scan(n: int, model: ModelId, params) -> list[SpectrumReport]:
    """Spectrum reports over a parameter list inside the real-spectrum
    regime; reports come back ordered by parameter value."""
    fracs = sorted(models._as_fraction(p) for p in params)
    return [_spectrum_report(n, model, p) for p in fracs]


def degeneracy_scan(n: int, model: ModelId, params) -> list[SpectrumReport]:
    """Spectrum reports along a parameter sequence approaching the
    exceptional point, in the order given; the max pairwise root gap is the
    quantity expected to shrink."""
    return [_spectrum_report(n, model, models._as_fraction(p))
            for p in params]


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
    families, one entry per (family, N), N ascending within each family."""
    n_list = sorted(set(int(n) for n in n_values))
    out = []
    for family, fwd, inv in _FAMILIES:
        for n in n_list:
            if n < 2:
                raise DomainError(f"condition report needs N >= 2, got {n}")
            kappa = fwd(n).frobenius_norm() * inv(n).frobenius_norm()
            out.append(ConditionEntry(N=n, family=family, kappa=kappa))
    return out
