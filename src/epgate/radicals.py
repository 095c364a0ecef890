"""Exact arithmetic in the field of finite sums  sum_k c_k * sqrt(m_k).

A value (``RadicalSum``) is one tuple of integer terms (m, re, im, den),
the term (re + im*i)/den * sqrt(m): strictly ascending in m, each m
squarefree (m = 1 holds the rational part), no zero term, and each triple
in lowest terms with den > 0.  The form is canonical, so value equality is
tuple equality and every identity downstream is checked with zero
tolerance.  The product kernel (``matrices``) and the samplers (``models``,
``spectra``) read and write the tuple as it is, with no per-term object;
``GaussianRational``, one lowest-terms triple of its own, is the public
coefficient type, built on demand by ``RadicalSum.items``.

All values are immutable and every operation is a pure function; instances may
be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt


class InvalidRadicand(ValueError):
    """Radicand is zero, negative, or otherwise outside the supported ring."""


class DivisionByZero(ZeroDivisionError):
    """Exact division by an exactly-zero value."""


class MultiTermInverse(ArithmeticError):
    """Monomial inversion was asked of a sum with more than one term."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


_TRIAL_BOUND = 2 ** 21

# each distinct AO parameter adds a radicand (~300 B) to this cache
_SQUAREFREE_CACHE_SIZE = 4096


def _big_prime(n: int) -> bool:
    """Whether n is a prime in [2^63, 3.317e24): Miller-Rabin with the first
    13 prime bases, which is exact below 3.317e24.  False outside."""
    if not 2 ** 63 <= n < 3317044064679887385961981 or n % 2 == 0:
        return False
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (n - 1) >> r, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(r)):
            return False
    return True


@lru_cache(maxsize=_SQUAREFREE_CACHE_SIZE)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split a positive integer as n = f**2 * s with s squarefree.

    Returns (s, f).  Trial division runs only while d^3 <= rem: what is
    left then has no prime factor below d, so it is 1, p, p^2 or p*q, and
    one integer square root settles it.  The cost is O(n^(1/3)) divisions,
    which matters for the large radicands of AO couplings at parameters with
    large denominators.  Division stops at d = 2^21, so no radicand costs
    more than ~10^6 divisions: a cofactor then left above 2^63 has no prime
    factor below 2^21 and may hold a square of a larger prime, so unless it
    is a perfect square or ``_big_prime`` it raises ``InvalidRadicand``.
    """
    if n < 1:
        raise InvalidRadicand(f"radicand must be a positive integer, got {n}")
    s, f = 1, 1
    rem = n
    d = 2
    prime = _big_prime(rem)
    while not prime and d * d * d <= rem:
        if d > _TRIAL_BOUND:
            r = isqrt(rem)
            if r * r == rem:
                return s, f * r
            raise InvalidRadicand(
                f"cannot split a {n.bit_length()}-bit radicand into square "
                f"and squarefree parts: a {rem.bit_length()}-bit cofactor "
                f"has no prime factor below 2^21")
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            f *= d ** (e // 2)
            if e % 2:
                s *= d
            prime = _big_prime(rem)
        d += 1 if d == 2 else 2
    r = isqrt(rem)
    if r * r == rem:
        return s, f * r
    return s * rem, f


def radicand_product(m1: int, m2: int) -> tuple[int, int]:
    """sqrt(m1) * sqrt(m2) = g * sqrt(s) for squarefree m1, m2: returns (s, g).

    With g = gcd(m1, m2), m1*m2 = g^2 * (m1/g)*(m2/g) and the cofactor
    s = (m1/g)*(m2/g) is squarefree (equal radicands give s = 1, g = m1).
    """
    g = gcd(m1, m2)
    return (m1 // g) * (m2 // g), g


class GaussianRational:
    """Exact complex rational (re + im*i)/den held as three integers in
    lowest terms: den > 0 and gcd(re, im, den) == 1, so equal values are
    equal triples.  ``re`` and ``im`` read the parts as reduced fractions."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        den = 1
        if type(re) is not int or type(im) is not int:
            re, im = _as_fraction(re), _as_fraction(im)
            den = lcm(re.denominator, im.denominator)  # still lowest terms
            re = re.numerator * (den // re.denominator)
            im = im.numerator * (den // im.denominator)
        self._re, self._im, self._den = re, im, den

    @staticmethod
    def _raw(re: int, im: int, den: int) -> "GaussianRational":
        # internal fast path: caller guarantees a canonical triple
        out = object.__new__(GaussianRational)
        out._re, out._im, out._den = re, im, den
        return out

    @staticmethod
    def _make(re: int, im: int, den: int) -> "GaussianRational":
        """(re + im*i)/den in lowest terms, for a positive den."""
        g = gcd(re, im, den)
        out = object.__new__(GaussianRational)
        out._re, out._im, out._den = re // g, im // g, den // g
        return out

    re = property(lambda self: Fraction(self._re, self._den))
    im = property(lambda self: Fraction(self._im, self._den))

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return (self._re == other._re and self._im == other._im
                    and self._den == other._den)
        if isinstance(other, (int, Fraction)):
            return (self._im == 0 and self._re == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self):  # a real value hashes as the int or Fraction it is
        if self._im == 0:
            return hash(Fraction(self._re, self._den))
        return hash((self._re, self._im, self._den))

    def __add__(self, other) -> "GaussianRational":
        other = _as_gaussian(other)
        a, b, d = self._re, self._im, self._den
        c, e, f = other._re, other._im, other._den
        if d == f:
            return GaussianRational._make(a + c, b + e, d)
        return GaussianRational._make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        return self + -_as_gaussian(other)

    def __rsub__(self, other) -> "GaussianRational":
        return _as_gaussian(other) + -self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self._re, -self._im, self._den)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            a, b, c, e = self._re, self._im, other._re, other._im
            return GaussianRational._make(a * c - b * e, a * e + b * c,
                                          self._den * other._den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return GaussianRational._make(self._re * p, self._im * p,
                                          self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "GaussianRational":
        a, b, d = self._re, self._im, self._den
        if not (a or b):
            raise DivisionByZero("reciprocal of exact zero")
        return GaussianRational._make(a * d, -b * d, a * a + b * b)

    def __complex__(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self._re / self._den, self._im / self._den)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")


_GAUSS_ZERO = GaussianRational(0)


def _term(m: int, re: int, im: int, den: int) -> tuple[int, int, int, int]:
    """The term (re + im*i)/den * sqrt(m) in lowest terms, for a nonzero
    numerator and a positive den."""
    g = gcd(re, im, den)
    return m, re // g, im // g, den // g


def _add_into(acc: dict, m: int, re: int, im: int, den: int) -> None:
    """Add (re + im*i)/den to the running sum acc[m] = [re, im, den]:
    numerators add when denominators match and cross-multiply otherwise."""
    s = acc.get(m)
    if s is None:
        acc[m] = [re, im, den]
    elif s[2] == den:
        s[0] += re
        s[1] += im
    else:
        s[0] = s[0] * den + re * s[2]
        s[1] = s[1] * den + im * s[2]
        s[2] *= den


def _canonical(sums: dict) -> tuple:
    """The canonical terms of sums {m: [re, im, den]} over squarefree m."""
    out = [_term(m, re, im, den) for m, (re, im, den) in sums.items()
           if re or im]
    if len(out) > 1:
        out.sort()
    return tuple(out)


class RadicalSum:
    """Canonical finite sum of Gaussian-rational multiples of square roots.

    ``_terms`` is one tuple of integer terms (m, re, im, den), the term
    (re + im*i)/den * sqrt(m): strictly ascending in m, each m squarefree
    (m = 1 carries the rational part), no zero term, each triple in lowest
    terms with den > 0.  Any mapping {radicand: coefficient} passed to the
    constructor is brought to that form (radicands reduced to squarefree
    form, zero coefficients dropped), so equal values are equal tuples.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict[int, list[int]] = {}
        if terms:
            for m, c in dict(terms).items():
                c = _as_gaussian(c)
                if c:
                    s, f = squarefree_decompose(m)
                    _add_into(acc, s, c._re * f, c._im * f, c._den)
        self._terms = _canonical(acc)

    @classmethod
    def _raw(cls, terms: tuple) -> "RadicalSum":
        # internal fast path: caller guarantees canonical terms
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, x) -> "RadicalSum":
        """Coerce an int, Fraction, GaussianRational, or RadicalSum."""
        if isinstance(x, RadicalSum):
            return x
        g = _as_gaussian(x)
        return cls._raw(((1, g._re, g._im, g._den),)) if g else ZERO

    @classmethod
    def gaussian(cls, re, im) -> "RadicalSum":
        return cls.of(GaussianRational(re, im))

    @classmethod
    def sqrt_int(cls, n: int) -> "RadicalSum":
        """Exact sqrt(n) for positive integer n, canonicalized to f*sqrt(s)."""
        s, f = squarefree_decompose(n)
        return cls._raw(((s, f, 0, 1),))

    @classmethod
    def sqrt_rational(cls, q) -> "RadicalSum":
        """Exact sqrt(p/d) for a positive rational, as (1/d)*sqrt(p*d)."""
        q = _as_fraction(q)
        if q <= 0:
            raise InvalidRadicand(f"square root domain is positive rationals, got {q}")
        p, d = q.numerator, q.denominator
        s, f = squarefree_decompose(p * d)
        return cls._raw((_term(s, f, 0, d),))

    # -- inspection ---------------------------------------------------------

    def items(self) -> tuple[tuple[int, GaussianRational], ...]:
        """Terms as (radicand, coefficient) pairs, radicand ascending."""
        return tuple([(m, GaussianRational._raw(re, im, den))
                      for m, re, im, den in self._terms])

    def __bool__(self) -> bool:
        return bool(self._terms)

    def integer_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """The stored terms (radicand, re, im, den), radicand ascending: the
        term is (re + im*i)/den * sqrt(m)."""
        return self._terms

    @classmethod
    def from_integer_sums(cls, sums: dict[int, list[int]]) -> "RadicalSum":
        """Canonical value of sums {m: [re, im, den]} read as the sum of
        (re + im*i)/den * sqrt(m); keys must be squarefree, den positive."""
        return cls._raw(_canonical(sums))

    def as_gaussian(self) -> GaussianRational:
        """The value as a Gaussian rational; ValueError if radicals remain."""
        t = self._terms
        if not t:
            return _GAUSS_ZERO
        if len(t) > 1 or t[0][0] != 1:
            raise ValueError(f"{self} has irrational terms")
        return GaussianRational._raw(*t[0][1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._terms == RadicalSum.of(other)._terms
        return NotImplemented

    def __hash__(self):
        # consistent with __eq__ against int, Fraction and GaussianRational:
        # a value without radicals hashes as its Gaussian rational
        t = self._terms
        if not t:
            return 0
        if len(t) == 1 and t[0][0] == 1:
            return hash(GaussianRational._raw(*t[0][1:]))
        return hash(t)

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            try:
                other = RadicalSum.of(other)
            except TypeError:
                return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        acc: dict[int, list[int]] = {}
        for m, re, im, den in a + b:
            _add_into(acc, m, re, im, den)
        return RadicalSum._raw(_canonical(acc))

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._raw(tuple([(m, -re, -im, den)
                                      for m, re, im, den in self._terms]))

    def __sub__(self, other) -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            try:
                other = RadicalSum.of(other)
            except TypeError:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RadicalSum":
        return RadicalSum.of(other) - self

    def __mul__(self, other) -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            try:
                other = RadicalSum.of(other)
            except TypeError:
                return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        acc: dict[int, list[int]] = {}
        for m1, ar, ai, ad in a:
            for m2, br, bi, bd in b:
                key, g = radicand_product(m1, m2)
                _add_into(acc, key, (ar * br - ai * bi) * g,
                          (ar * bi + ai * br) * g, ad * bd)
        return RadicalSum._raw(_canonical(acc))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalSum":
        """Exact division by a rational or Gaussian-rational scalar."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * invert_monomial(RadicalSum.of(other))
        return NotImplemented

    def __complex__(self) -> complex:
        return sum((complex(re / den, im / den) * sqrt(m)
                    for m, re, im, den in self._terms), complex(0))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_str(m, c) for m, c in self.items())

    def __repr__(self) -> str:
        return f"RadicalSum<{self}>"


def _coeff_str(c: GaussianRational) -> str:
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        return f"{c.im}*I"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{abs(c.im)}*I)"


def _term_str(m: int, c: GaussianRational) -> str:
    s = _coeff_str(c)
    if m == 1:
        return s
    if not s.startswith("("):
        if s == "1":
            return f"sqrt({m})"
        if s == "-1":
            return f"-sqrt({m})"
        if s.endswith("*I"):
            s = f"({s})"
    return f"{s}*sqrt({m})"


def invert_monomial(a: RadicalSum) -> RadicalSum:
    """Exact inverse of a single-term value c*sqrt(m): (1/(c*m))*sqrt(m),
    with c = (re + im*i)/den, so 1/(c*m) = den*(re - im*i)/(m*(re^2 + im^2))."""
    terms = a._terms
    if not terms:
        raise DivisionByZero("inverse of exact zero")
    if len(terms) > 1:
        raise MultiTermInverse(
            f"{a} has {len(terms)} terms; only monomials invert at field level")
    ((m, re, im, den),) = terms
    return RadicalSum._raw((_term(m, den * re, -den * im,
                                  m * (re * re + im * im)),))


ZERO = RadicalSum()
ONE = RadicalSum.of(1)
