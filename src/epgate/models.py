"""Constructors for the model matrices.

Two tridiagonal Hamiltonian families live here -- the complex-symmetric
Bose-Hubbard chain H_BH(z) with exceptional points at z = +-1 and the real
asymmetric anharmonic-oscillator chain H_AO(lambda) with its exceptional
point at lambda = 0 -- with the Jordan block, the binomial (Pascal) matrix
and the closed-form transition machinery.  ``checked_parameter`` checks a
model's dimension and parameter once per entry point and returns the
checked value p, z or damping(lambda), from which ``jacobi_data`` reads the
data of the exact spectra unchecked.  The module also holds:

* ``transition(n, model)``: the matrix Q that carries a family's EP
  Hamiltonian to the nilpotent Jordan block, equal to diagonal * pascal *
  diagonal (``transition_factors``), and its inverse ``transition_inverse``,
* ``intertwiner``: the matrix S with S @ H_BH(1) = H_AO(0) @ S, equal to
  diagonal * core * diagonal (``intertwiner_factors``, ``intertwiner_core``),
  and ``intertwiner_inverse``, which is S itself; Q, Q^-1 and S are written
  entry by entry, each entry one integer monomial c * sqrt(m), and
* the similarity-transformed families of the crossing scenarios.

Every sample is a pencil A + c(p)*B with c = z or sqrt(1 - damping(lambda)),
built by ``family_pencil`` in its frame ("identity" for the Hamiltonians)
from one row of ``_PENCIL_TABLE``.  ``_sample_operand`` groups the positions
where B is nonzero by their (A, B) entry pair; ``_sample`` writes a + c*b
once per group, in integers, and shares A's entries elsewhere.

Cache policy: a constructor gets an lru cache only if some command reads
the same result twice within one N.  Five do: ``transition``,
``transition_inverse``, ``intertwiner``, ``family_pencil`` (read by the
sampler and by charpoly-similarity) and ``_sample_operand``.

All constructors are pure and exact; parameters are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from enum import Enum
from math import comb, factorial, gcd

from .matrices import ExactMatrix
from .radicals import (ONE, ZERO, RadicalSum, radicand_product,
                       squarefree_decompose)


class DimensionError(ValueError):
    """Matrix dimension below the model's minimum."""


class DomainError(ValueError):
    """Parameter outside the model's exact domain."""


class NonPositiveRadicand(DomainError):
    """A coupling radicand left the positive domain."""


class ModelId(Enum):
    BH = "bh"
    AO = "ao"


def _check_dimension(n: int):
    if n < 2:
        raise DimensionError(f"model dimension must be >= 2, got {n}")


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return x if isinstance(x, Fraction) else Fraction(x)
    raise DomainError(f"parameters must be exact rationals, got {type(x).__name__}")


def damping(n: int, lam) -> Fraction:
    """Coupling damping of the anharmonic-oscillator family.

    N = 2K or 2K + 1; with the optional per-site constants dropped, the
    damping is site-independent:  lambda + lambda^2 + ... + lambda^(K-1).
    At K = 1 that sum is empty, which would freeze the family at its
    exceptional point for every lambda, so the schedule uses the linear
    damping lambda there instead (the N = 2, 3 special case).  With
    lambda = p/q the sum is one geometric sum of integers over q^(K-1).
    """
    lam = _as_fraction(lam)
    k = n // 2 - 1
    if k == 0:
        return lam
    p, q = lam.numerator, lam.denominator
    # p == q only at lambda = 1, where each of the k powers is 1
    num = k if p == q else p * (q ** k - p ** k) // (q - p)
    return Fraction(num, q ** k)


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------

def checked_parameter(n: int, model: ModelId, param) -> Fraction:
    """z for BH, damping(lambda) = p/q for AO, after checking n >= 2, an
    exact rational parameter, and for AO lambda >= 0 with 1 - damping =
    (q - p)/q, the factor under every coupling's square root, positive.  The
    coupling radicand k*(n-k)*(1 - damping) has its smallest factor k*(n-k)
    at k = 1, so the first row pair to leave the domain is (0,1)."""
    _check_dimension(n)
    x = _as_fraction(param)
    if model is ModelId.BH:
        return x
    if x.numerator < 0:
        raise DomainError(f"lambda must be >= 0, got {x}")
    d = damping(n, x)
    p, q = d.numerator, d.denominator
    if p >= q:
        raise NonPositiveRadicand(
            f"coupling radicand {Fraction((n - 1) * (q - p), q)} at row pair "
            f"(0,1); lambda = {x} is outside the model domain")
    return d


def jacobi_data(n: int, model: ModelId,
                p: Fraction) -> tuple[list[RadicalSum], list[Fraction]]:
    """The tridiagonal data of a model Hamiltonian at the checked value p of
    ``checked_parameter``: the diagonal d_k, k = 0..n-1, as canonical
    radical sums (each one term over radicand 1, written by ``_entry``), and
    the products b_k = H[k-1][k] * H[k][k-1] of paired couplings,
    k = 1..n-1, as Fractions.

    BH: d_k = i*(2k - n + 1)*z and b_k = k*(n-k).  AO: d_k = 2k - n + 1 and
    b_k = -k*(n-k)*(1 - damping), polynomials in p, so the ladder proof
    reads them outside the model domain too.  No matrix is built from it:
    it is the parameter-side reference that ``spectra.char_poly_tridiagonal``
    and the ladder proof read, independent of the Hamiltonians' pencils
    (``family_pencil``).
    """
    if model is ModelId.BH:
        return ([_entry((2 * k - n + 1) * p.numerator, (0, 1), p.denominator)
                 for k in range(n)],
                [Fraction(k * (n - k)) for k in range(1, n)])
    scale = 1 - p
    return ([_entry(2 * k - n + 1, (1, 0), 1) for k in range(n)],
            [-k * (n - k) * scale for k in range(1, n)])


def bh_hamiltonian(n: int, z) -> ExactMatrix:
    """Complex-symmetric tridiagonal family, dimension n, parameter z.

    Diagonal i*(2k - n + 1)*z for k = 0..n-1; couplings sqrt(k*(n-k))
    between rows k-1 and k on both off-diagonals.
    """
    return _sample(n, ModelId.BH, "identity", z)


def ao_hamiltonian(n: int, lam) -> ExactMatrix:
    """Real asymmetric tridiagonal family, dimension n, parameter lambda >= 0.

    Diagonal 2k - n + 1; coupling sqrt(k*(n-k)*(1 - damping)) appears with a
    plus sign on the superdiagonal and a minus sign on the subdiagonal.  The
    damping must stay below 1 so every radicand is positive.
    """
    return _sample(n, ModelId.AO, "identity", lam)


def jordan_block(n: int, eta=0) -> ExactMatrix:
    """Jordan block: eta on the diagonal, 1 on the superdiagonal."""
    if n < 1:
        raise DimensionError(f"Jordan block needs n >= 1, got {n}")
    eta = RadicalSum.of(eta)
    return ExactMatrix._raw(tuple(
        tuple(eta if i == j else ONE if j == i + 1 else ZERO for j in range(n))
        for i in range(n)))


def pascal_matrix(n: int) -> ExactMatrix:
    """Binomial matrix with entry (m, q) = C(n-1-m, q); zero above the
    anti-diagonal, so the last row is (1, 0, ..., 0)."""
    if n < 1:
        raise DimensionError(f"Pascal matrix needs n >= 1, got {n}")
    return ExactMatrix([
        [comb(n - 1 - m, q) for q in range(n)] for m in range(n)])


# ---------------------------------------------------------------------------
# Transition matrices, the intertwiner and their inverses, entry by entry
# ---------------------------------------------------------------------------

# i^e as (re, im), indexed by e % 4; each model's omega is i^_PHASE
_I_POWER = ((1, 0), (0, 1), (-1, 0), (0, -1))
_PHASE = {ModelId.BH: 1, ModelId.AO: 0}


def _entry(c: int, z: tuple[int, int], den: int, *radicands) -> RadicalSum:
    """z * c/den * sqrt(product of the positive radicands, each split on its
    own) as one lowest-terms term, or the shared zero; z = (re, im), c ints,
    den > 0."""
    m = 1
    for a in radicands:
        s, f = squarefree_decompose(a)
        m, g = radicand_product(m, s)
        c *= f * g
    re, im = z[0] * c, z[1] * c
    if not (re or im):
        return ZERO
    g = gcd(re, im, den)
    out = object.__new__(RadicalSum)
    out._terms = ((m, re // g, im // g, den // g),)
    return out


def _entrywise(n: int, entry) -> ExactMatrix:
    """The n x n matrix of entry(r, c), n >= 2, the shared zero if falsy."""
    _check_dimension(n)
    return ExactMatrix._raw(tuple(tuple(entry(r, c) or ZERO for c in range(n))
                                  for r in range(n)))


def transition_factors(n: int, model: ModelId) -> tuple[ExactMatrix, ExactMatrix]:
    """Diagonals (pre, post) with Q = pre @ pascal @ post: pre holds
    omega^k * sqrt(C(n-1, k)) and post (-omega)^(n-1-k) * (n-1-k)!, k = 0..n-1,
    with omega = i for the complex-symmetric model and 1 for the real one."""
    _check_dimension(n)
    e = _PHASE[model]
    pre = ExactMatrix.diagonal(
        _entry(1, _I_POWER[e * k % 4], 1, comb(n - 1, k)) for k in range(n))
    post = ExactMatrix.diagonal(reversed([
        _entry(factorial(j), _I_POWER[(e + 2) * j % 4], 1) for j in range(n)]))
    return pre, post


@lru_cache(maxsize=None)
def transition(n: int, model: ModelId) -> ExactMatrix:
    """Transition matrix Q of a family at its exceptional point (z = 1 or
    lambda = 0): (m, q) is omega^m * sqrt(C(n-1, m)) * C(n-1-m, q) *
    (-omega)^(n-1-q) * (n-1-q)!, zero for q > n-1-m.  Call it as
    ``transition(n, model)``; a keyword call is a separate cache entry."""
    e, top = _PHASE[model], n - 1
    return _entrywise(n, lambda m, q: q <= top - m and _entry(
        comb(top - m, q) * factorial(top - q),
        _I_POWER[(e * m + (e + 2) * (top - q)) % 4], 1, comb(top, m)))


@lru_cache(maxsize=None)
def transition_inverse(n: int, model: ModelId) -> ExactMatrix:
    """Exact inverse of ``transition(n, model)``: (m, q) is (-1)^q *
    C(m, n-1-q) / (omega^(q+n-1-m) * (n-1-m)! * sqrt(C(n-1, q))), zero for
    q < n-1-m; (-1)^(m+q-n+1) * C(m, n-1-q) inverts the binomial matrix."""
    e, top = _PHASE[model], n - 1
    return _entrywise(n, lambda m, q: q >= top - m and _entry(
        comb(m, top - q), _I_POWER[(2 * q - e * (q + top - m)) % 4],
        factorial(top - m) * comb(top, q), comb(top, q)))


def _one_minus_i_powers(n: int) -> list[tuple[int, int]]:
    p = [(1, 0)]  # (1 - i)^q as (re, im), q = 0..n-1
    for _ in range(n - 1):
        p.append((p[-1][0] + p[-1][1], p[-1][1] - p[-1][0]))
    return p


def intertwiner_factors(n: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Diagonals (pre, post) with S = pre @ core @ post: pre holds
    (1 - i)^(-k) = (1 + i)^k / 2^k and post (-1 + i)^k, k = 0..n-1."""
    _check_dimension(n)
    p = _one_minus_i_powers(n)
    pre = ExactMatrix.diagonal(
        _entry(1, (re, -im), 2 ** k) for k, (re, im) in enumerate(p))
    post = ExactMatrix.diagonal(
        _entry((-1) ** k, z, 1) for k, z in enumerate(p))
    return pre, post


def intertwiner_core(n: int) -> ExactMatrix:
    """Real upper-triangular core with entries sqrt(C(c, r) * C(n-1-r, c-r))
    at (r, c); unit diagonal, binomial square roots above it."""
    return _entrywise(n, lambda r, c: c >= r and _entry(
        1, (1, 0), 1, comb(c, r), comb(n - 1 - r, c - r)))


@lru_cache(maxsize=None)
def intertwiner(n: int) -> ExactMatrix:
    """Upper-triangular matrix S mapping the complex-symmetric EP Hamiltonian
    to the real asymmetric one: S @ bh_hamiltonian(n, 1) =
    ao_hamiltonian(n, 0) @ S.  Entry (r, c) is (-1)^c * (1 - i)^(c-r) *
    sqrt(C(c, r) * C(n-1-r, c-r)), zero for c < r."""
    p = _one_minus_i_powers(n)
    return _entrywise(n, lambda r, c: c >= r and _entry(
        (-1) ** c, p[c - r], 1, comb(c, r), comb(n - 1 - r, c - r)))


def intertwiner_inverse(n: int) -> ExactMatrix:
    """S^-1 = S: D @ S @ D^-1, D = diag(sqrt(C(n-1, k))), is the symmetric
    power Sym^(n-1)(g_S) of g_S = [[1, -1+i], [0, -1]] (W. Fulton and J.
    Harris, *Representation Theory*, GTM 129, Sec. 11), and g_S^2 = I."""
    return intertwiner(n)


# ---------------------------------------------------------------------------
# Pencils and samples: the Hamiltonians and their transformed families
# ---------------------------------------------------------------------------

# A's and B's (alpha, beta, gamma) per pencil, as (re, im)
_PENCIL_TABLE = {
    (ModelId.BH, "identity"): (((0, 0), (1, 0), (1, 0)), ((0, -1), (0, 0), (0, 0))),
    (ModelId.AO, "identity"): (((-1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (-1, 0))),
    (ModelId.BH, "transition"): (((0, -1), (1, 0), (2, 0)), ((0, 1), (0, 0), (-2, 0))),
    (ModelId.AO, "transition"): (((1, 0), (0, 0), (2, 0)), ((-1, 0), (1, 0), (-2, 0))),
    (ModelId.BH, "intertwiner"): (((-1, 1), (-1, -2), (-1, 0)), ((0, -1), (2, 2), (0, 0))),
    (ModelId.AO, "intertwiner"): (((-1, 0), (2, -2), (0, 0)), ((1, -1), (-1, 2), (1, 0))),
}


def _kac_band(n: int, frame: str, alpha, beta, gamma) -> ExactMatrix:
    """Diagonal entry k alpha*(n-1-2k); (k-1, k) and (k, k-1) beta*sqrt(w)
    and gamma*sqrt(w), w = k(n-k), except in the transition frame: beta
    and gamma*w there; each one integer term, or zero."""
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = _entry(n - 1 - 2 * k, alpha, 1)
    for k in range(1, n):
        w, tr = k * (n - k), frame == "transition"
        rows[k - 1][k] = _entry(1, beta, 1, 1 if tr else w)
        rows[k][k - 1] = _entry(w if tr else 1, gamma, 1, 1 if tr else w)
    return ExactMatrix._raw(tuple(map(tuple, rows)))


@lru_cache(maxsize=None)
def family_pencil(n: int, model: ModelId,
                  frame: str) -> tuple[ExactMatrix, ExactMatrix]:
    """(A, B) with q_inv @ H(p) @ q = A + c(p) * B for every p in the domain.

    Both families are affine in one scalar that is 1 at the EP: H_BH(z) =
    H(0) + z*(H_EP - H(0)), so c = z; H_AO(lambda) = D + sqrt(1 - damping) *
    (H_EP - D) with D the diagonal, so c = sqrt(1 - damping) (damping is
    site-independent, see ``damping``).  ``frame`` is "identity" (q = I, the
    Hamiltonians), "transition" (the family's own EP transition matrix) or
    "intertwiner" (S, towards the other model's frame).  All six pencils are
    Sylvester-Kac-type tridiagonals (M. Kac, Amer. Math. Monthly 54, 1947),
    read from ``_PENCIL_TABLE`` through ``_kac_band`` and no other
    constructor; charpoly-similarity proves the transformed four in product
    form against the Hamiltonians.
    """
    _check_dimension(n)
    try:
        a, b = _PENCIL_TABLE[model, frame]
    except KeyError:
        raise DomainError(
            f"unknown frame {frame!r}; known frames are 'identity', "
            f"'transition' and 'intertwiner'") from None
    return _kac_band(n, frame, *a), _kac_band(n, frame, *b)


@lru_cache(maxsize=None)
def _sample_operand(n: int, model: ModelId, frame: str):
    """``family_pencil`` read once for sampling, for all six sample kinds:
    A's rows, and the positions where B is nonzero grouped by their (A, B)
    pair of term tuples (equal tuples are equal values; the mirror
    k <-> n-k of the weights k(n-k) pairs most of them).  Each group holds
    its positions, A's terms keyed by radicand, {m: (m, re, im, den)}, and
    B's terms."""
    a, b = family_pencil(n, model, frame)
    groups = {}
    for i, row in enumerate(b.rows()):
        for j, e in enumerate(row):
            if e:
                groups.setdefault((a[i, j]._terms, e._terms),
                                  []).append((i, j))
    return a.rows(), tuple((tuple(where), {t[0]: t for t in x}, y)
                           for (x, y), where in groups.items())


def _sample(n: int, model: ModelId, frame: str, param) -> ExactMatrix:
    """A + c(param) * B for ``family_pencil``, with the real scalar
    c = cr/cd * sqrt(mc) = z or sqrt(1 - damping(lambda)).  Once per group
    of equal (A, B) pairs, each term of c * B (a radicand product unless
    mc = 1) is added in integers to A's term of the same radicand and made
    canonical with one gcd, a zero sum dropped; the terms, sorted when a
    radicand was added, make one immutable entry, written at every position
    of the group.  Elsewhere the entry is A's."""
    p = checked_parameter(n, model, param)
    if model is ModelId.BH:
        mc, cr, cd = 1, p.numerator, p.denominator
    else:  # p = damping, and c = sqrt(den * (den - num)) / den
        cd = p.denominator
        mc, cr = squarefree_decompose(cd * (cd - p.numerator))
    a_rows, band = _sample_operand(n, model, frame)
    if not cr:
        return ExactMatrix._raw(a_rows)
    rows = [list(r) for r in a_rows]
    new = object.__new__
    for where, a_terms, b in band:
        out = dict(a_terms)
        added = False
        for m, br, bi, bd in b:
            re, im, den = cr * br, cr * bi, cd * bd
            if mc != 1:  # radicand_product, written inline
                g = gcd(mc, m)
                m = (mc // g) * (m // g)
                if g != 1:
                    re, im = re * g, im * g
            t = a_terms.get(m)
            if t is None:
                added = True
            else:
                _, ar, ai, ad = t
                re, im, den = re * ad + ar * den, im * ad + ai * den, den * ad
                if not (re or im):
                    del out[m]
                    continue
            g = gcd(re, im, den)
            out[m] = (m, re // g, im // g, den // g)
        e = new(RadicalSum)
        e._terms = tuple(sorted(out.values()) if added else out.values())
        for i, j in where:
            rows[i][j] = e
    return ExactMatrix._raw(tuple(map(tuple, rows)))


def bh_in_jordan_basis(n: int, z) -> ExactMatrix:
    """The complex-symmetric Hamiltonian conjugated into the basis of its own
    EP transition matrix: Q^-1 @ H(z) @ Q.  Equals the nilpotent Jordan block
    at z = 1."""
    return _sample(n, ModelId.BH, "transition", z)


def ao_in_jordan_basis(n: int, lam) -> ExactMatrix:
    """The real asymmetric Hamiltonian conjugated into the basis of its own
    EP transition matrix: Q^-1 @ H(lambda) @ Q.  Equals the nilpotent Jordan
    block at lambda = 0."""
    return _sample(n, ModelId.AO, "transition", lam)


def bh_in_ao_frame(n: int, z) -> ExactMatrix:
    """S @ H_BH(z) @ S^-1: the complex-symmetric dynamics written in the real
    asymmetric model's frame.  Equals ao_hamiltonian(n, 0) at z = 1."""
    return _sample(n, ModelId.BH, "intertwiner", z)


def ao_in_bh_frame(n: int, lam) -> ExactMatrix:
    """S^-1 @ H_AO(lambda) @ S: the real asymmetric dynamics written in the
    complex-symmetric model's frame.  Equals bh_hamiltonian(n, 1) at
    lambda = 0."""
    return _sample(n, ModelId.AO, "intertwiner", lam)


def ep_hamiltonian(n: int, model: ModelId) -> ExactMatrix:
    """The exceptional-point member of a family (z = 1 or lambda = 0)."""
    ctor = bh_hamiltonian if model is ModelId.BH else ao_hamiltonian
    return ctor(n, EP_PARAMETER[model][1])


# Each family's parameter name and its value at the exceptional point.
EP_PARAMETER = {ModelId.BH: ("z", Fraction(1)),
                ModelId.AO: ("lambda", Fraction(0))}

# Every lru cache defined above (not the imported squarefree_decompose),
# collected at import: a caller that later replaces a constructor on the
# module with a wrapper or a patch still leaves its cache here.
_CACHES = tuple(fn for fn in tuple(globals().values())
                if hasattr(fn, "cache_clear")
                and getattr(fn, "__module__", None) == __name__)


def clear_caches() -> None:
    """Empty every constructor cache of this module, with its statistics.
    The commands that loop over dimensions call it before each N, so a run
    holds one dimension's matrices at a time."""
    for fn in _CACHES:
        fn.cache_clear()
