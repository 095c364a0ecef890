"""Shared test fixtures: hand-frozen golden matrices, random element
generators, and independent brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from hypothesis import strategies as st

from epgate import models, spectra
from epgate.models import ModelId
from epgate.matrices import ExactMatrix, ExactPolynomial, similarity
from epgate.radicals import (GaussianRational, RadicalSum, invert_monomial,
                             squarefree_decompose)


def T(m: int, re, im=0) -> RadicalSum:
    """Single term (re + im*i) * sqrt(m)."""
    return RadicalSum({m: GaussianRational(Fraction(re), Fraction(im))})


def G(re, im=0) -> RadicalSum:
    return RadicalSum.gaussian(Fraction(re), Fraction(im))


def gaussian_power(g: GaussianRational, k: int) -> GaussianRational:
    """g^k by repeated multiplication, by g^-1 for k < 0."""
    base = g if k >= 0 else g.reciprocal()
    out = GaussianRational(1)
    for _ in range(abs(k)):
        out = out * base
    return out


def M(rows) -> ExactMatrix:
    return ExactMatrix(rows)


def zeros(n_rows: int, n_cols: int) -> ExactMatrix:
    return ExactMatrix([[0] * n_cols for _ in range(n_rows)])


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(zip(*m.rows()))


def is_zero(m: ExactMatrix) -> bool:
    """Whether every entry of ``m`` is exactly zero."""
    return all(not e for row in m.rows() for e in row)


def with_entry(m: ExactMatrix, i: int, j: int, value) -> ExactMatrix:
    """Copy of ``m`` with entry (i, j) replaced."""
    return ExactMatrix([[value if (r, c) == (i, j) else e
                         for c, e in enumerate(row)]
                        for r, row in enumerate(m.rows())])


# ---------------------------------------------------------------------------
# Golden matrices, transcribed by hand from the printed closed forms.
# Products of two printed radicals (e.g. sqrt(5)*sqrt(2)) are entered with
# their canonical single radicand (sqrt(10)).
# ---------------------------------------------------------------------------

GOLDEN_H_BH = {
    2: M([[G(0, -1), 1], [1, G(0, 1)]]),
    3: M([[G(0, -2), T(2, 1), 0],
          [T(2, 1), 0, T(2, 1)],
          [0, T(2, 1), G(0, 2)]]),
    6: M([[G(0, -5), T(5, 1), 0, 0, 0, 0],
          [T(5, 1), G(0, -3), T(2, 2), 0, 0, 0],
          [0, T(2, 2), G(0, -1), 3, 0, 0],
          [0, 0, 3, G(0, 1), T(2, 2), 0],
          [0, 0, 0, T(2, 2), G(0, 3), T(5, 1)],
          [0, 0, 0, 0, T(5, 1), G(0, 5)]]),
}

GOLDEN_Q_BH = {
    2: M([[G(0, -1), 1], [1, 0]]),
    3: M([[-2, G(0, -2), 1],
          [T(2, 0, -2), T(2, 1), 0],
          [2, 0, 0]]),
    6: M([[G(0, -120), 120, G(0, 60), -20, G(0, -5), 1],
          [T(5, 120), T(5, 0, 96), T(5, -36), T(5, 0, -8), T(5, 1), 0],
          [T(10, 0, 120), T(10, -72), T(10, 0, -18), T(10, 2), 0, 0],
          [T(10, -120), T(10, 0, -48), T(10, 6), 0, 0, 0],
          [T(5, 0, -120), T(5, 24), 0, 0, 0, 0],
          [120, 0, 0, 0, 0, 0]]),
}

GOLDEN_H_AO = {
    2: M([[-1, 1], [-1, 1]]),
    3: M([[-2, T(2, 1), 0],
          [T(2, -1), 0, T(2, 1)],
          [0, T(2, -1), 2]]),
}

GOLDEN_Q_AO = {
    2: M([[-1, 1], [-1, 0]]),
    3: M([[2, -2, 1],
          [T(2, 2), T(2, -1), 0],
          [2, 0, 0]]),
    4: M([[-6, 6, -3, 1],
          [T(3, -6), T(3, 4), T(3, -1), 0],
          [T(3, -6), T(3, 2), 0, 0],
          [-6, 0, 0, 0]]),
    5: M([[24, -24, 12, -4, 1],
          [48, -36, 12, -2, 0],
          [T(6, 24), T(6, -12), T(6, 2), 0, 0],
          [48, -12, 0, 0, 0],
          [24, 0, 0, 0, 0]]),
}

GOLDEN_S = {
    2: M([[1, G(-1, 1)], [0, -1]]),
    3: M([[1, T(2, -1, 1), G(0, -2)],
          [0, -1, T(2, 1, -1)],
          [0, 0, 1]]),
    4: M([[1, T(3, -1, 1), T(3, 0, -2), G(2, 2)],
          [0, -1, G(2, -2), T(3, 0, 2)],
          [0, 0, 1, T(3, -1, 1)],
          [0, 0, 0, -1]]),
    5: M([[1, G(-2, 2), T(6, 0, -2), G(4, 4), -4],
          [0, -1, T(6, 1, -1), G(0, 6), G(-4, -4)],
          [0, 0, 1, T(6, -1, 1), T(6, 0, -2)],
          [0, 0, 0, -1, G(2, -2)],
          [0, 0, 0, 0, 1]]),
}

GOLDEN_R = {
    2: M([[1, 1], [0, 1]]),
    3: M([[1, T(2, 1), 1],
          [0, 1, T(2, 1)],
          [0, 0, 1]]),
    4: M([[1, T(3, 1), T(3, 1), 1],
          [0, 1, 2, T(3, 1)],
          [0, 0, 1, T(3, 1)],
          [0, 0, 0, 1]]),
    5: M([[1, 2, T(6, 1), 2, 1],
          [0, 1, T(6, 1), 3, 2],
          [0, 0, 1, T(6, 1), T(6, 1)],
          [0, 0, 0, 1, 2],
          [0, 0, 0, 0, 1]]),
    6: M([[1, T(5, 1), T(10, 1), T(10, 1), T(5, 1), 1],
          [0, 1, T(2, 2), T(2, 3), 4, T(5, 1)],
          [0, 0, 1, 3, T(2, 3), T(10, 1)],
          [0, 0, 0, 1, T(2, 2), T(10, 1)],
          [0, 0, 0, 0, 1, T(5, 1)],
          [0, 0, 0, 0, 0, 1]]),
}

GOLDEN_P = {
    4: M([[1, 3, 3, 1], [1, 2, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]),
    5: M([[1, 4, 6, 4, 1], [1, 3, 3, 1, 0], [1, 2, 1, 0, 0],
          [1, 1, 0, 0, 0], [1, 0, 0, 0, 0]]),
}


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_radical(rng: random.Random, max_terms: int = 3,
                   max_radicand: int = 50, max_num: int = 1000,
                   max_den: int = 30) -> RadicalSum:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = rng.randint(1, max_radicand)
        coeff = GaussianRational(
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)),
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)))
        terms[m] = coeff
    return RadicalSum(terms)


# Hypothesis strategy: RadicalSum values of up to three terms
_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=30)
radical_sums = st.dictionaries(
    st.integers(min_value=1, max_value=50),
    st.builds(GaussianRational, _fractions, _fractions), max_size=3,
).map(RadicalSum)


def random_matrix(rng: random.Random, n: int, n_cols: int | None = None,
                  **kw) -> ExactMatrix:
    return ExactMatrix([[random_radical(rng, **kw) for _ in range(n_cols or n)]
                        for _ in range(n)])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def naive_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Reference product: each entry the plain sum of RadicalSum products."""
    return ExactMatrix([
        [sum((x * y for x, y in zip(row, col)), RadicalSum()) for col in
         zip(*b.rows())] for row in a.rows()])


class FractionPair:
    """Reference Gaussian rational: a + b*i as two reduced Fractions, with
    the schoolbook field operations (the scalar's earlier storage form)."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPair(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __mul__(self, other):
        return FractionPair(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def reciprocal(self):
        norm = self.re * self.re + self.im * self.im
        return FractionPair(self.re / norm, -self.im / norm)


def assert_canonical(value):
    """A RadicalSum (or GaussianRational) in canonical form.  A RadicalSum's
    terms are one tuple of integer quadruples (m, re, im, den): strictly
    ascending in m, each m squarefree, no zero term, and each triple
    (re, im, den) with den > 0 and gcd(re, im, den) == 1."""
    if not isinstance(value, RadicalSum):
        triple = (value._re, value._im, value._den)
        assert all(type(x) is int for x in triple), triple
        assert value._den > 0 and math.gcd(*triple) == 1, triple
        return
    terms = value.integer_terms()
    assert type(terms) is tuple, terms
    radicands = [t[0] for t in terms]
    assert radicands == sorted(set(radicands)), terms
    for t in terms:
        assert type(t) is tuple and len(t) == 4, t
        assert all(type(x) is int for x in t), t
        m, re, im, den = t
        assert (re or im) and den > 0 and math.gcd(re, im, den) == 1, t
        assert squarefree_decompose(m) == (m, 1), t


def trial_division_squarefree(n: int) -> tuple[int, int]:
    """Reference squarefree split: largest square divisor by brute force."""
    best_f = 1
    for f in range(1, n + 1):
        if f * f > n:
            break
        if n % (f * f) == 0:
            best_f = f
    return n // (best_f * best_f), best_f


def _poly_add(a: list[RadicalSum], b: list[RadicalSum]) -> list[RadicalSum]:
    out = list(a) + [RadicalSum()] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def _poly_mul(a: list[RadicalSum], b: list[RadicalSum]) -> list[RadicalSum]:
    out = [RadicalSum()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_char_poly(m: ExactMatrix) -> list[RadicalSum]:
    """det(E*I - A) by the full permutation expansion; coefficients E-degree
    ascending.  Exponential cost -- only usable for n <= 4."""
    n = m.n_rows
    one = RadicalSum.of(1)
    total = [RadicalSum()] * (n + 1)
    for perm in itertools.permutations(range(n)):
        poly = [RadicalSum.of(_perm_sign(perm))]
        for i in range(n):
            cell = [-m[i, perm[i]]]
            if i == perm[i]:
                cell.append(one)
            poly = _poly_mul(poly, cell)
        total = _poly_add(total, poly)
    return total


def pascal_inverse(n: int) -> ExactMatrix:
    """Reference inverse of ``models.pascal_matrix(n)`` in closed form:
    entry (m, q) is (-1)^(m+q-n+1) * C(m, n-1-q)."""
    return ExactMatrix([
        [(-1) ** ((m + q - n + 1) % 2) * math.comb(m, n - 1 - q)
         for q in range(n)] for m in range(n)])


def factored_inverse(pre: ExactMatrix, core_inverse: ExactMatrix,
                     post: ExactMatrix) -> ExactMatrix:
    """Reference inverse of pre @ core @ post with diagonal pre and post:
    post^-1 @ core^-1 @ pre^-1, each diagonal inverted entry by entry."""
    def diagonal_inverse(d):
        return ExactMatrix.diagonal(
            invert_monomial(d[k, k]) for k in range(d.n_rows))
    return diagonal_inverse(post) @ core_inverse @ diagonal_inverse(pre)


def perturb_constructor(fn, where="corner", delta=1):
    """Wrap a matrix constructor so its result has one entry shifted by
    ``delta``: fault injection for sensitivity tests."""
    def wrapper(*args, **kwargs):
        m = fn(*args, **kwargs)
        if where == "corner":
            i, j = 0, m.n_cols - 1
        elif where == "diag":
            i, j = 0, 0
        else:
            i, j = where
        return with_entry(m, i, j, m[i, j] + delta)
    return wrapper


# lru caches of epgate.spectra (the ladder proof), collected before any test
# patches the module; epgate.models empties its own (``models.clear_caches``)
_SPECTRA_CACHES = [fn for fn in vars(spectra).values()
                   if hasattr(fn, "cache_clear")
                   and getattr(fn, "__module__", None) == spectra.__name__]


def _clear_model_caches():
    models.clear_caches()
    for fn in _SPECTRA_CACHES:
        fn.cache_clear()


@contextmanager
def fresh_model_caches():
    """Empty every models and spectra lru cache on entry and on exit, so a
    matrix built while a constructor is patched cannot outlive the patch
    inside a cached composite (intertwiner, transition inverses, ...), and
    a ladder proof made before a patch cannot hide it."""
    _clear_model_caches()
    try:
        yield
    finally:
        _clear_model_caches()


def model_cache_infos() -> dict:
    """``cache_info()`` of every models lru cache, by function name."""
    return {fn.__name__: fn.cache_info() for fn in models._CACHES}


def gaussian_tridiagonal_char_poly(h: ExactMatrix) -> ExactPolynomial:
    """Reference three-term recurrence p_k = (E - d_k) p_(k-1) - b_k p_(k-2)
    run directly on Gaussian-rational coefficient lists."""
    n = h.n_rows
    d = [h[k, k].as_gaussian() for k in range(n)]
    b = [(h[k - 1, k] * h[k, k - 1]).as_gaussian() for k in range(1, n)]
    prev2 = [GaussianRational(1)]
    prev1 = [-d[0], GaussianRational(1)]
    for k in range(1, n):
        nxt = [GaussianRational(0)] + prev1
        for i, c in enumerate(prev1):
            nxt[i] = nxt[i] - d[k] * c
        for i, c in enumerate(prev2):
            nxt[i] = nxt[i] - b[k - 1] * c
        prev1, prev2 = nxt, prev1
    return ExactPolynomial(prev1)


def factor_by_factor_ladder_poly(n: int, d: Fraction) -> ExactPolynomial:
    """Reference sl(2) ladder prod_k (E^2 - (n-1-2k)^2 d), k < n // 2, times
    E for odd n: each factor multiplied in, in Fractions."""
    # coefficients in x = E^2, degree descending
    coeffs = [Fraction(1)]
    for k in range(n // 2):
        c = (n - 1 - 2 * k) ** 2 * d
        coeffs = [a - c * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    out = [0] * (n + 1)
    for j, c in enumerate(coeffs):
        out[n - 2 * j] = c
    return ExactPolynomial(out)


# family name -> (Hamiltonian, q, q_inv) of its q_inv @ H @ q definition
SIMILARITY_DEFINITIONS = {
    "bh_in_jordan_basis": (models.bh_hamiltonian,
                           lambda n: models.transition(n, ModelId.BH),
                           lambda n: models.transition_inverse(n, ModelId.BH)),
    "ao_in_jordan_basis": (models.ao_hamiltonian,
                           lambda n: models.transition(n, ModelId.AO),
                           lambda n: models.transition_inverse(n, ModelId.AO)),
    "bh_in_ao_frame": (models.bh_hamiltonian, models.intertwiner_inverse,
                       models.intertwiner),
    "ao_in_bh_frame": (models.ao_hamiltonian, models.intertwiner,
                       models.intertwiner_inverse),
}


def similarity_family(name: str, n: int, param) -> ExactMatrix:
    """Reference transformed family: the per-sample product
    q_inv @ H(param) @ q through ``matrices.similarity``."""
    h, q, q_inv = SIMILARITY_DEFINITIONS[name]
    return similarity(h(n, param), q(n), q_inv(n))


def dense_pencil(n: int, model: ModelId,
                 frame: str) -> tuple[ExactMatrix, ExactMatrix]:
    """Reference transformed pencil: the dense similarity transforms
    q_inv @ H0 @ q and q_inv @ (H_EP - H0) @ q through
    ``matrices.similarity``, with H0 = H_BH(0) or the AO EP diagonal, and
    q = Q in the "transition" frame, S (AO) or S^-1 (BH) in the
    "intertwiner" frame."""
    if frame == "transition":
        q, q_inv = models.transition(n, model), models.transition_inverse(n, model)
    else:
        q, q_inv = models.intertwiner(n), models.intertwiner_inverse(n)
        if model is ModelId.BH:
            q, q_inv = q_inv, q
    ep = models.ep_hamiltonian(n, model)
    base = (models.bh_hamiltonian(n, 0) if model is ModelId.BH
            else ExactMatrix.diagonal(ep[k, k] for k in range(n)))
    return similarity(base, q, q_inv), similarity(ep - base, q, q_inv)


def jacobi_tridiagonal(model: ModelId, n: int, param) -> ExactMatrix:
    """Reference Hamiltonian, built per sample: the tridiagonal of
    ``models.jacobi_data`` at ``param`` checked by
    ``models.checked_parameter``, each coupling its own ``sqrt_rational`` of
    |b_k|, negated below the diagonal for AO."""
    d, b = models.jacobi_data(n, model,
                              models.checked_parameter(n, model, param))
    g = [RadicalSum.sqrt_rational(abs(x)) for x in b]
    sub = g if model is ModelId.BH else [-x for x in g]
    return ExactMatrix([[d[i] if i == j else g[i] if j == i + 1
                         else sub[j] if i == j + 1 else 0
                         for j in range(n)] for i in range(n)])


# every scenario sample kind -> its reference (n, param) -> matrix
REFERENCE_SAMPLES = {
    **{name: partial(similarity_family, name)
       for name in SIMILARITY_DEFINITIONS},
    "bh_hamiltonian": partial(jacobi_tridiagonal, ModelId.BH),
    "ao_hamiltonian": partial(jacobi_tridiagonal, ModelId.AO),
}
