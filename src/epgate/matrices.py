"""Dense matrices and polynomials over the exact radical field.

Everything here is exact: products, inverses, similarity transforms by
proven inverse pairs, and the Faddeev-LeVerrier characteristic polynomial:
general dense routines (demos, and the tests' references) that no check
or sample calls, since every characteristic polynomial a check takes is
read by the band recurrence in ``spectra`` and every transformed family is
a closed-form pencil.  The only float bridge is the Frobenius norm.

A product is one fused fraction-free dot product per entry (the
common-denominator idea of Bareiss, applied to a single dot product): integer
numerators over a running denominator per radicand, reduced once, at the
end, into the entry's term tuple.  The kernel reads and writes the scalars'
own (radicand, re, im, den) terms, with no per-term object; ``@`` is its
one entry point, Faddeev-LeVerrier's products included.  Both operands are
read as their nonzero entries only and the product runs row by row, as in
Gustavson's sparse product (ACM TOMS 4(3), 1978), so a zero entry costs no
arithmetic and an output entry that no term reaches is the shared zero.

Both inverses, of an upper-triangular matrix with a monomial diagonal and
of a radical-free matrix, are one Gauss-Jordan elimination whose pivots
are monomials, each inverted by ``radicals.invert_monomial``, the one
field inverse.  No model constructor calls either: ``models`` writes the
transition inverses entry by entry in closed form, and the intertwiner is
its own inverse.
"""

from __future__ import annotations

from math import gcd, sqrt

from .radicals import ONE, ZERO, MultiTermInverse, RadicalSum, invert_monomial


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class StructureError(ValueError):
    """Matrix lacks the structure (triangularity, rational entries) an
    operation relies on."""


class SingularError(ValueError):
    """Exact inversion hit a non-invertible pivot."""


class ExactMatrix:
    """Immutable dense matrix with RadicalSum entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        table = tuple(tuple(RadicalSum.of(e) for e in row) for row in rows)
        if not table or not table[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(table[0])
        if any(len(r) != width for r in table):
            raise ShapeError("ragged rows")
        self._rows = table

    @classmethod
    def _raw(cls, rows: tuple[tuple[RadicalSum, ...], ...]) -> "ExactMatrix":
        out = object.__new__(cls)
        out._rows = rows
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.scalar(n, ONE)

    @classmethod
    def scalar(cls, n: int, value) -> "ExactMatrix":
        v = RadicalSum.of(value)
        return cls._raw(tuple(
            tuple(v if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries) -> "ExactMatrix":
        entries = [RadicalSum.of(e) for e in entries]
        n = len(entries)
        return cls._raw(tuple(
            tuple(entries[i] if i == j else ZERO for j in range(n))
            for i in range(n)))

    # -- inspection ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, key) -> RadicalSum:
        i, j = key
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[RadicalSum, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_shape(self, other: "ExactMatrix"):
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return ExactMatrix._raw(tuple(
            tuple(a + b if b else a for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)))

    def __sub__(self, other) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return ExactMatrix._raw(tuple(
            tuple(a - b if b else a for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)))

    def __matmul__(self, other) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise ShapeError(
                f"cannot multiply {self.shape} by {other.shape}")
        return _accumulate(self, other)

    def trace(self) -> RadicalSum:
        if not self.is_square:
            raise ShapeError("trace needs a square matrix")
        acc = ZERO
        for i in range(self.n_rows):
            acc = acc + self._rows[i][i]
        return acc

    # -- inverses ------------------------------------------------------------

    def inverse_upper_triangular(self) -> "ExactMatrix":
        """Exact inverse of an upper-triangular matrix whose diagonal entries
        are monomials c*sqrt(m) (unit and +-1 diagonals included): its
        pivots are its diagonal, with no row swap."""
        if not self.is_square:
            raise StructureError("inverse needs a square matrix")
        n = self.n_rows
        if any(self._rows[i][j] for i in range(n) for j in range(i)):
            raise StructureError("matrix is not upper triangular")
        return _gauss_jordan(self._rows)

    def inverse_rational(self) -> "ExactMatrix":
        """Exact inverse of a radical-free matrix, whose every nonzero entry
        is a monomial, so any nonzero pivot inverts."""
        if not self.is_square:
            raise StructureError("inverse needs a square matrix")
        if any(t[0] != 1 for row in self._rows for e in row for t in e._terms):
            raise StructureError("matrix has radical entries; use the "
                                 "factorized inversion route")
        return _gauss_jordan(self._rows)

    # -- spectral data -------------------------------------------------------

    def char_poly(self) -> "ExactPolynomial":
        """Exact monic characteristic polynomial via Faddeev-LeVerrier.

        Uses only ring operations plus division by the integers 1..N, so the
        result stays in the radical field with no growth of the radicand set
        beyond products of the entries'.  Its N - 1 products are plain ``@``.
        """
        if not self.is_square:
            raise ShapeError("characteristic polynomial needs a square matrix")
        n = self.n_rows
        coeffs: list[RadicalSum] = [ZERO] * (n + 1)
        coeffs[n] = ONE
        am = self
        for k in range(1, n + 1):
            c = (-am.trace()) / k
            coeffs[n - k] = c
            if k < n:
                am = self @ (am + ExactMatrix.scalar(n, c))
        return ExactPolynomial(coeffs)

    def frobenius_norm(self) -> float:
        """Floating-point Frobenius norm of the exact matrix; OverflowError
        once a squared entry or the sum passes the float range."""
        return sqrt(sum(abs(complex(e)) ** 2 for row in self._rows for e in row))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return "\n".join("  ".join(str(e) for e in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.n_rows}x{self.n_cols})"


def _gauss_jordan(rows) -> ExactMatrix:
    """The inverse of a square matrix by Gauss-Jordan elimination in the
    radical field.  Each pivot is the first nonzero entry at or below the
    diagonal, swapped up and inverted by ``invert_monomial``; a column with
    no such entry, or a pivot of more than one term, raises SingularError."""
    n = len(rows)
    a = [list(r) for r in rows]
    x = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        p = next((r for r in range(col, n) if a[r][col]), None)
        if p is None:
            raise SingularError(f"no pivot in column {col}")
        a[col], a[p], x[col], x[p] = a[p], a[col], x[p], x[col]
        try:
            inv = invert_monomial(a[col][col])
        except MultiTermInverse as exc:
            raise SingularError(f"pivot in column {col}: {exc}") from None
        a[col] = [v * inv for v in a[col]]
        x[col] = [v * inv for v in x[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                x[r] = [v - f * w for v, w in zip(x[r], x[col])]
    return ExactMatrix._raw(tuple(map(tuple, x)))


def _accumulate(left: ExactMatrix, other: ExactMatrix) -> ExactMatrix:
    """The product ``left @ other``.

    Row by row (Gustavson): each nonzero a_ik of a row of ``left`` meets the
    nonzero entries b_kj of row k of ``other``, read once as its nonzero
    terms, and each term pair adds to the output entry j's running sum, one
    integer [re, im, den] per radicand: numerators add when denominators
    match and cross-multiply when they differ.  A pair with radicand 1 on
    either side keeps the other radicand with no gcd.  Each sum is then
    reduced by one gcd into the entry's terms, sorted only when it holds
    more than one radicand; an entry no pair reaches is the shared zero.
    """
    b_rows = [[(j, e._terms) for j, e in enumerate(row) if e._terms]
              for row in other._rows]
    width = len(other._rows[0])
    new = object.__new__
    out = []
    for row in left._rows:
        sums: dict[int, dict[int, list[int]]] = {}
        for k, a in [(k, e._terms) for k, e in enumerate(row) if e._terms]:
            for j, b in b_rows[k]:
                acc = sums.get(j)
                if acc is None:
                    acc = sums[j] = {}
                for m1, ar, ai, ad in a:
                    for m2, br, bi, bd in b:
                        re = ar * br - ai * bi
                        im = ar * bi + ai * br
                        if m1 == 1:
                            key = m2
                        elif m2 == 1:
                            key = m1
                        else:
                            g = gcd(m1, m2)
                            key = (m1 // g) * (m2 // g)
                            if g != 1:
                                re, im = re * g, im * g
                        den = ad * bd
                        s = acc.get(key)
                        if s is None:
                            acc[key] = [re, im, den]
                        elif s[2] == den:
                            s[0] += re
                            s[1] += im
                        else:
                            s[0] = s[0] * den + re * s[2]
                            s[1] = s[1] * den + im * s[2]
                            s[2] *= den
        out_row = [ZERO] * width
        for j, acc in sums.items():
            terms = []
            for m, (re, im, den) in acc.items():
                if re or im:
                    g = gcd(re, im, den)
                    terms.append((m, re // g, im // g, den // g))
            if terms:
                if len(terms) > 1:
                    terms.sort()
                e = new(RadicalSum)
                e._terms = tuple(terms)
                out_row[j] = e
        out.append(tuple(out_row))
    return ExactMatrix._raw(tuple(out))


def similarity(h: ExactMatrix, q: ExactMatrix, q_inv: ExactMatrix) -> ExactMatrix:
    """Exact similarity transform q_inv @ h @ q.

    (q, q_inv) must be an exact two-sided inverse pair; it is not re-proven
    here.  It has no src caller (``models.family_pencil`` is closed-form)
    and stays as a traced name and the tests' reference for the pencils.
    """
    if not (h.is_square and q.is_square and q_inv.is_square):
        raise ShapeError("similarity needs square matrices")
    if not h.shape == q.shape == q_inv.shape:
        raise ShapeError("similarity needs matching sizes")
    return q_inv @ h @ q


class ExactPolynomial:
    """Polynomial with RadicalSum coefficients, stored degree-ascending.

    Trailing zero coefficients are trimmed (the constant term survives), so
    structural equality is value equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients):
        coeffs = [RadicalSum.of(c) for c in coefficients]
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            coeffs = [ZERO]
        self._coeffs = tuple(coeffs)

    @classmethod
    def _raw(cls, coeffs: tuple[RadicalSum, ...]) -> "ExactPolynomial":
        # internal fast path: caller guarantees canonical, trimmed coefficients
        out = object.__new__(cls)
        out._coeffs = coeffs
        return out

    @classmethod
    def power(cls, n: int) -> "ExactPolynomial":
        """The monic monomial E**n."""
        return cls([ZERO] * n + [ONE])

    @property
    def coefficients(self) -> tuple[RadicalSum, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self._coeffs[-1] == ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other) -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            other = ExactPolynomial([other])
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ExactPolynomial(out)

    def __sub__(self, other) -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            other = ExactPolynomial([other])
        return self + ExactPolynomial([-c for c in other._coeffs])

    def to_complex_coefficients(self) -> list[complex]:
        """Degree-ascending double-precision mirror of the coefficients."""
        return [complex(c) for c in self._coeffs]

    def __repr__(self) -> str:
        return f"ExactPolynomial(degree={self.degree})"
