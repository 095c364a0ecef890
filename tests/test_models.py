import math
import random
import sys
from fractions import Fraction

import pytest

import epgate
from epgate import matrices, models, radicals, scenarios, spectra, verify
from epgate.matrices import ExactMatrix, ExactPolynomial
from epgate.models import (
    DimensionError,
    DomainError,
    ModelId,
    NonPositiveRadicand,
)
from epgate.radicals import GaussianRational, RadicalSum
from helpers import (
    GOLDEN_H_AO,
    GOLDEN_H_BH,
    GOLDEN_P,
    GOLDEN_Q_AO,
    GOLDEN_Q_BH,
    GOLDEN_R,
    GOLDEN_S,
    REFERENCE_SAMPLES,
    T,
    assert_canonical,
    dense_pencil,
    factored_inverse,
    is_zero,
    jacobi_tridiagonal,
    pascal_inverse,
    power,
    real_rational,
    transpose,
    with_entry,
)


# ---------------------------------------------------------------------------
# Hamiltonian families against the printed forms
# ---------------------------------------------------------------------------

def test_bh_hamiltonian_golden():
    for n, expected in GOLDEN_H_BH.items():
        assert models.bh_hamiltonian(n, 1) == expected


def test_bh_hamiltonian_diagonal_ordering():
    h = models.bh_hamiltonian(5, Fraction(1, 3))
    diag = [h[k, k] for k in range(5)]
    assert diag[0] == RadicalSum.gaussian(0, Fraction(-4, 3))
    assert diag[-1] == RadicalSum.gaussian(0, Fraction(4, 3))
    assert diag[2] == RadicalSum()


def test_bh_hamiltonian_is_complex_symmetric():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 9)
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        h = models.bh_hamiltonian(n, z)
        assert h == transpose(h)
        for k in range(n):
            # purely imaginary diagonal
            assert all(m == 1 and re == 0
                       for m, re, _, _ in h[k, k].integer_terms())


def test_ao_hamiltonian_golden():
    for n, expected in GOLDEN_H_AO.items():
        assert models.ao_hamiltonian(n, 0) == expected


def test_ao_hamiltonian_off_ep_couplings():
    # K = 2, damping 1/4: couplings (3/2, sqrt(3), 3/2)
    h = models.ao_hamiltonian(4, Fraction(1, 4))
    assert h[0, 1] == RadicalSum.of(Fraction(3, 2))
    assert h[1, 2] == RadicalSum.sqrt_int(3)
    assert h[2, 3] == RadicalSum.of(Fraction(3, 2))
    assert h[1, 0] == -h[0, 1]


def test_ao_hamiltonian_real_with_antisymmetric_offdiagonal():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 9)
        lam = Fraction(rng.randint(0, 3), 16)
        h = models.ao_hamiltonian(n, lam)
        for i in range(n):
            for j in range(n):
                g = h[i, j].items()
                for _, c in g:
                    assert c.im == 0  # strictly real matrix
                if i != j:
                    assert h[i, j] == -h[j, i]


def test_ao_hamiltonian_domain_errors():
    with pytest.raises(DomainError):
        models.ao_hamiltonian(4, Fraction(-1, 4))
    with pytest.raises(NonPositiveRadicand):
        models.ao_hamiltonian(2, 1)  # damping reaches 1
    with pytest.raises(NonPositiveRadicand):
        models.ao_hamiltonian(6, Fraction(3, 4))  # damping above 1 at K = 3


# Entry points that take a model parameter or a scenario time.  A binary
# float is refused like everywhere in the exact layer, not coerced: 0.1 would
# arrive as 3602879701896397/2^55.
FLOAT_ENTRY_POINTS = {
    "char_poly_tridiagonal":
        lambda x: spectra.char_poly_tridiagonal(3, ModelId.BH, x),
    "certified_spectrum":
        lambda x: spectra.certified_spectrum(3, ModelId.BH, x),
    "reality_scan": lambda x: spectra.reality_scan(3, ModelId.BH, [x]),
    "degeneracy_scan": lambda x: spectra.degeneracy_scan(3, ModelId.BH, [x]),
    "check_charpoly_similarity":
        lambda x: verify.check_charpoly_similarity(3, ModelId.BH, x),
    "sample_path": lambda x: scenarios.sample_path(1, 3, [-x]),
    "hamiltonian_at": lambda x: scenarios.hamiltonian_at(1, 3, -x),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_float_parameters_are_refused(name):
    with pytest.raises(DomainError, match="exact rationals"):
        FLOAT_ENTRY_POINTS[name](0.1)


def test_dimension_errors():
    for fn in (models.bh_hamiltonian, models.ao_hamiltonian):
        with pytest.raises(DimensionError):
            fn(1, 0)
    for model in ModelId:
        with pytest.raises(DimensionError):
            models.transition(1, model)


def test_coupling_schedule():
    # damping vanishes at the exceptional point for every dimension
    for n in range(2, 10):
        assert models.damping(n, Fraction(0)) == 0
    # K = 1 uses the linear damping; K = 3 the two-term sum
    assert models.damping(2, Fraction(1, 4)) == Fraction(1, 4)
    assert models.damping(6, Fraction(1, 4)) == \
        Fraction(1, 4) + Fraction(1, 16)


@pytest.mark.parametrize("lam", [0, Fraction(1, 2), Fraction(3, 7),
                                 Fraction(1, 2 ** 40), Fraction(-1, 3),
                                 Fraction(5, 2), 1, -1])
def test_damping_is_the_power_sum(lam):
    for n in range(2, 41):
        want = (Fraction(lam) if n // 2 == 1 else
                sum((Fraction(lam) ** j for j in range(1, n // 2)),
                    Fraction(0)))
        got = models.damping(n, lam)
        assert type(got) is Fraction and got == want, (n, lam)


# The six scenario families, with parameters inside each one's domain at
# every N below; the oscillator's 2^-40 radicand is refused from N = 8 on.
_FAMILY_PARAMS = {
    models.bh_hamiltonian: [-1, Fraction(-5, 16), 0, Fraction(1, 64),
                            Fraction(1, 2), 1],
    models.bh_in_jordan_basis: [-1, Fraction(-5, 16), 0, Fraction(1, 64), 1],
    models.bh_in_ao_frame: [-1, Fraction(-5, 16), 0, Fraction(1, 64), 1],
    models.ao_hamiltonian: [0, Fraction(1, 64), Fraction(1, 8),
                            Fraction(5, 16)],
    models.ao_in_jordan_basis: [0, Fraction(1, 64), Fraction(5, 16)],
    models.ao_in_bh_frame: [0, Fraction(1, 64), Fraction(5, 16)],
}


@pytest.mark.parametrize("family", list(_FAMILY_PARAMS),
                         ids=lambda f: f.__name__)
def test_assembled_samples_are_canonical(family):
    # the samples are assembled from their entries without re-reading them;
    # reading every entry again changes nothing
    for n in (2, 3, 5, 8, 12):
        params = _FAMILY_PARAMS[family]
        if n <= 5 and family in (models.ao_hamiltonian,
                                 models.ao_in_jordan_basis,
                                 models.ao_in_bh_frame):
            params = params + [Fraction(1, 2 ** 40)]
        for p in params:
            sample = family(n, p)
            assert sample == ExactMatrix(sample.rows())
            assert sample == ExactMatrix(
                [[RadicalSum(dict(e.items())) for e in row]
                 for row in sample.rows()])
            for row in sample.rows():
                for e in row:
                    assert isinstance(e, RadicalSum)
                    assert_canonical(e)


# ---------------------------------------------------------------------------
# Jordan block and binomial matrix
# ---------------------------------------------------------------------------

def test_jordan_block():
    assert models.jordan_block(2, 0) == ExactMatrix([[0, 1], [0, 0]])
    j3 = models.jordan_block(3, 0)
    assert j3 == ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    j3_eta = models.jordan_block(3, 2)
    assert j3_eta == ExactMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    gauss = models.jordan_block(2, GaussianRational(1, -1))
    assert gauss[0, 0] == RadicalSum.gaussian(1, -1)


# every zero a constructor writes is the one shared zero of ``radicals``
_SHARED_ZERO_CONSTRUCTORS = {
    "transition": lambda n: [models.transition(n, m) for m in ModelId],
    "transition_inverse":
        lambda n: [models.transition_inverse(n, m) for m in ModelId],
    "intertwiner": lambda n: [models.intertwiner(n)],
    "family_pencil": lambda n: [
        x for m in ModelId for frame in ("identity", "transition",
                                         "intertwiner")
        for x in models.family_pencil(n, m, frame)],
    "jordan_block": lambda n: [models.jordan_block(n, 0)],
}


@pytest.mark.parametrize("name", sorted(_SHARED_ZERO_CONSTRUCTORS))
def test_zero_entries_are_the_shared_zero(name):
    zeros = [e for n in range(2, 8)
             for matrix in _SHARED_ZERO_CONSTRUCTORS[name](n)
             for row in matrix.rows() for e in row if not e]
    assert zeros and all(e is radicals.ZERO for e in zeros)


def test_zero_scalar_is_the_shared_zero():
    assert RadicalSum.of(0) is radicals.ZERO
    assert RadicalSum.of(Fraction(0)) is radicals.ZERO
    assert RadicalSum.of(GaussianRational(0)) is radicals.ZERO


def test_pascal_matrix_golden():
    for n, expected in GOLDEN_P.items():
        assert models.pascal_matrix(n) == expected
    assert models.pascal_matrix(1) == ExactMatrix([[1]])


def test_pascal_inverse_closed_form_is_gauss_jordan_inverse():
    for n in range(2, 21):
        assert pascal_inverse(n) == models.pascal_matrix(n).inverse_rational()


# ---------------------------------------------------------------------------
# transition matrices (golden reproduction)
# ---------------------------------------------------------------------------

def test_bh_transition_golden():
    for n, expected in GOLDEN_Q_BH.items():
        assert models.transition(n, ModelId.BH) == expected


def test_ao_transition_golden():
    for n, expected in GOLDEN_Q_AO.items():
        assert models.transition(n, ModelId.AO) == expected


def test_intertwiner_golden():
    for n, expected in GOLDEN_S.items():
        assert models.intertwiner(n) == expected


def test_intertwiner_core_golden():
    for n, expected in GOLDEN_R.items():
        assert models.intertwiner_core(n) == expected


def test_intertwiner_diagonal_signs():
    s = models.intertwiner(7)
    for k in range(7):
        assert s[k, k] == RadicalSum.of((-1) ** k)


# ---------------------------------------------------------------------------
# factorized inverses
# ---------------------------------------------------------------------------

def test_bh_transition_inverse_2x2():
    assert models.transition_inverse(2, ModelId.BH) == \
        ExactMatrix([[0, 1], [1, GaussianRational(0, 1)]])


def test_transition_inverses_multiply_back():
    # the checks compute Q @ Q^-1 and S @ S^-1 only; both sides are kept here
    # over the dimensions of ``verify --N 2..12``
    for n in range(2, 13):
        ident = ExactMatrix.identity(n)
        for model in ModelId:
            q, q_inv = (models.transition(n, model),
                        models.transition_inverse(n, model))
            assert q @ q_inv == ident
            assert q_inv @ q == ident
        s, s_inv = models.intertwiner(n), models.intertwiner_inverse(n)
        assert s @ s_inv == ident
        assert s_inv @ s == ident


def test_intertwiner_inverse_2x2_is_involution():
    s = models.intertwiner(2)
    assert models.intertwiner_inverse(2) == s
    assert s @ s == ExactMatrix.identity(2)


def _alternating_signs(n: int) -> ExactMatrix:
    return ExactMatrix.diagonal((-1) ** k for k in range(n))


def test_intertwiner_core_inverse_is_sign_conjugation():
    # R^-1 = Sigma @ R @ Sigma with Sigma = diag((-1)^k): the closed form a
    # later change can use in place of back substitution
    for n in range(2, 21):
        sigma, core = _alternating_signs(n), models.intertwiner_core(n)
        assert sigma @ core @ sigma == core.inverse_upper_triangular(), n


def test_intertwiner_is_an_involution():
    for n in range(2, 21):
        s = models.intertwiner(n)
        assert s @ s == ExactMatrix.identity(n), n


def test_closed_forms_equal_their_factor_routes():
    # Q, Q^-1 and S are written entry by entry; the diagonal * core *
    # diagonal products they stand for are the oracles.  Entries are
    # canonical term tuples, so == compares them term for term.
    for n in range(2, 41):
        for model, omega in ((ModelId.BH, RadicalSum.gaussian(0, 1)),
                             (ModelId.AO, RadicalSum.of(1))):
            pre, post = models.transition_factors(n, model)
            assert pre == ExactMatrix.diagonal(
                RadicalSum.sqrt_int(math.comb(n - 1, k))
                * power(omega, k)
                for k in range(n))
            assert post == ExactMatrix.diagonal(
                power(-omega, n - 1 - k) * math.factorial(n - 1 - k)
                for k in range(n))
            assert models.transition(n, model) == \
                pre @ models.pascal_matrix(n) @ post, (n, model)
            assert models.transition_inverse(n, model) == \
                factored_inverse(pre, pascal_inverse(n), post), (n, model)
        pre, post = models.intertwiner_factors(n)
        beta = RadicalSum.gaussian(-1, 1)
        assert pre == ExactMatrix.diagonal(
            power(-beta, -k) for k in range(n))
        assert post == ExactMatrix.diagonal(
            power(beta, k) for k in range(n))
        s = models.intertwiner(n)
        assert s == pre @ models.intertwiner_core(n) @ post, n
        assert models.intertwiner_inverse(n) == s, n
        assert s @ s == ExactMatrix.identity(n), n


# ---------------------------------------------------------------------------
# derived Hamiltonians
# ---------------------------------------------------------------------------

def test_jordan_basis_families_hit_the_block_at_the_ep():
    for n in range(2, 7):
        j = models.jordan_block(n, 0)
        assert models.bh_in_jordan_basis(n, 1) == j
        assert models.ao_in_jordan_basis(n, 0) == j


def test_frame_swaps_at_the_ep():
    for n in range(2, 7):
        assert models.ao_in_bh_frame(n, 0) == models.bh_hamiltonian(n, 1)
        assert models.bh_in_ao_frame(n, 1) == models.ao_hamiltonian(n, 0)


# ---------------------------------------------------------------------------
# closed-form transformed pencils
# ---------------------------------------------------------------------------

_TRANSFORMED = [(model, frame) for model in ModelId
                for frame in ("transition", "intertwiner")]
_OFF_EP = {ModelId.BH: Fraction(1, 2), ModelId.AO: Fraction(1, 8)}


@pytest.mark.parametrize("model, frame", _TRANSFORMED,
                         ids=lambda v: getattr(v, "value", v))
def test_pencil_table_is_the_dense_similarity(model, frame):
    for n in range(2, 21):
        assert models.family_pencil(n, model, frame) == \
            dense_pencil(n, model, frame), n


_I = RadicalSum.gaussian(0, 1)
# the transition matrices and the intertwiner at N = 2: 2x2 Gaussian-integer
# matrices g, each with det +-1, whose symmetric powers they are at every N
_G = {ModelId.BH: ((-_I, 1), (1, 0)), ModelId.AO: ((-1, 1), (-1, 0)),
      "s": ((1, -1 + _I), (0, -1))}


def _mul2(x, y):
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j]
                       for j in range(2)) for i in range(2))


def _inv2(g):
    (a, b), (c, d) = g
    det = a * d - b * c
    assert det in (1, -1)
    return ((d * det, -b * det), (-c * det, a * det))  # 1/det = det


def _sl2(row):
    """[[alpha, beta], [gamma, -alpha]] of a table row (alpha, beta, gamma)."""
    a, b, c = (RadicalSum.gaussian(*z) for z in row)
    return ((a, b), (c, -a))


def test_pencil_table_rows_are_2x2_conjugates():
    # each transformed row of _PENCIL_TABLE, A's and B's, is its model's
    # identity row conjugated in 2x2 Gaussian integers: g^-1 X g in the
    # transition frame, g_S X g_S^-1 (BH) or g_S^-1 X g_S (AO) in the
    # intertwiner frame
    for key, g in _G.items():
        got = models.intertwiner(2) if key == "s" else models.transition(2, key)
        assert got == ExactMatrix(g), key
        assert _mul2(g, _inv2(g)) == ((1, 0), (0, 1)), key
    gs, gs_inv = _G["s"], _inv2(_G["s"])
    for model in ModelId:
        g, g_inv = _G[model], _inv2(_G[model])
        s_left, s_right = (gs, gs_inv) if model is ModelId.BH else (gs_inv, gs)
        for frame, left, right in (("transition", g_inv, g),
                                   ("intertwiner", s_left, s_right)):
            for x, y in zip(models._PENCIL_TABLE[model, "identity"],
                            models._PENCIL_TABLE[model, frame], strict=True):
                assert _mul2(_mul2(left, _sl2(x)), right) == _sl2(y), \
                    (model, frame)


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_hamiltonian_rows_are_the_jacobi_tridiagonal(model):
    # the "identity" rows of the table against the Hamiltonians built per
    # sample from jacobi_data, at the EP and off it
    ctor = getattr(models, f"{model.value}_hamiltonian")
    for n in range(2, 21):
        for p in (models.EP_PARAMETER[model][1], _OFF_EP[model]):
            assert ctor(n, p) == jacobi_tridiagonal(model, n, p), (n, p)


@pytest.mark.parametrize("key, matrix, const", [
    pytest.param(key, matrix, const, id=f"{key[0].value}-{key[1]}-"
                 f"{'AB'[matrix]}-{('alpha', 'beta', 'gamma')[const]}")
    for key in models._PENCIL_TABLE for matrix in range(2)
    for const in range(3)])
def test_each_table_constant_is_proved(monkeypatch, key, matrix, const):
    # one of the 36 Gaussian integers shifted by 1 fails a matrix pair, not
    # the polynomial row: the pencil certificate of charpoly-similarity at a
    # transformed (model, frame), ep-schrodinger at a Hamiltonian's row
    model, frame = key
    rows = [list(r) for r in models._PENCIL_TABLE[key]]
    re, im = rows[matrix][const]
    rows[matrix][const] = (re + 1, im)
    monkeypatch.setitem(models._PENCIL_TABLE, key, tuple(map(tuple, rows)))
    report = (verify.check_ep_schrodinger(4, model) if frame == "identity"
              else verify.check_charpoly_similarity(4, model, _OFF_EP[model],
                                                    frame))
    assert not report.passed
    assert report.residual.shape == (4, 4)
    assert not is_zero(report.residual)
    if frame != "identity":
        return
    # a wrong Hamiltonian fails, and never raises, every check that reads
    # it: the scenario rows whose interface or side it is (BH 1 and 6, AO
    # 3 and 4) and the product-form certificate of both frames
    scenario_rows = (1, 6) if model is ModelId.BH else (3, 4)
    p = _OFF_EP[model]
    for n in (3, 4, 6):
        reports = [verify.check_ep_degeneracy(n, model),
                   verify.check_jordanization(n, model),
                   verify.check_intertwine(n)]
        reports += [verify.check_scenario_matching(n, row)
                    for row in scenario_rows]
        reports += [verify.check_charpoly_similarity(n, model, p, f)
                    for f in ("transition", "intertwiner")]
        assert not any(r.passed for r in reports), n


def test_no_check_or_sample_runs_a_dense_similarity(monkeypatch):
    original = matrices.similarity
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "epgate" and \
                getattr(module, "similarity", None) is original:
            monkeypatch.setattr(module, "similarity", counted)
    models.clear_caches()
    assert all(r.passed for r in verify.run_suite(range(2, 13)))
    models.clear_caches()
    for row in range(1, 7):
        for n in (4, 8):
            scenarios.sample_path(row, n, [Fraction(-1, 8), 0, Fraction(1, 8)])
    assert calls == []


def test_transformed_pencils_read_no_constructor(monkeypatch):
    # all six pencils, the Hamiltonians' included, are table rows
    expected = {(n, model, frame): models.family_pencil(n, model, frame)
                for n in range(2, 9) for model, frame in models._PENCIL_TABLE}
    models.clear_caches()  # so the loop below builds, not reads the cache

    def refuse(*args, **kwargs):
        raise AssertionError("a models constructor was read")

    for name, fn in list(vars(models).items()):
        if (callable(fn) and not isinstance(fn, type)
                and not name.startswith("_")
                and getattr(fn, "__module__", None) == models.__name__
                and name not in ("family_pencil", "clear_caches")):
            monkeypatch.setattr(models, name, refuse)
    for (n, model, frame), pencil in expected.items():
        misses = models.family_pencil.cache_info().misses
        assert models.family_pencil(n, model, frame) == pencil
        assert models.family_pencil.cache_info().misses == misses + 1


def test_unknown_frame_is_a_domain_error():
    for call in (lambda: models.family_pencil(4, ModelId.BH, "sideways"),
                 lambda: models._sample(4, ModelId.AO, "sideways", 0)):
        with pytest.raises(DomainError, match="unknown frame 'sideways'; "
                           "known frames are 'identity', 'transition' and "
                           "'intertwiner'"):
            call()


# in-domain parameters per model: the EP, off-EP points, z < 0 for BH, the
# pencil base alone (z = 0, c = 0), the opposite EP z = -1, and parameters
# with a 2^40 denominator.  Every sample kind, the Hamiltonians included,
# is the cached pencil A + c * B evaluated where B is nonzero, and must
# equal its reference built per sample
_PENCIL_PARAMS = {
    "bh": [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(1, 8),
           Fraction(17, 64), Fraction(-1, 2), Fraction(0), Fraction(-1),
           Fraction(2 ** 40 - 1, 2 ** 40)],
    "ao": [Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(1, 8),
           Fraction(17, 64), Fraction(1, 2 ** 40)],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLES))
def test_pencil_families_equal_per_sample_similarity(name):
    for n in (2, 3, 5, 8):
        for p in _PENCIL_PARAMS[name[:2]]:
            if name[:2] == "ao" and n > 5 and p.denominator == 2 ** 40:
                # from N = 6 on damping is no longer lambda alone, and the
                # scalar sqrt(1 - damping) at N = 8 has the numerator
                # 2^120 - 2^80 - 2^40 - 1 = 397 * 5564899609 * (a 79-bit
                # prime), which squarefree_decompose cannot split below its
                # trial bound and refuses with InvalidRadicand
                continue
            sample = getattr(models, name)(n, p)
            assert sample == REFERENCE_SAMPLES[name](n, p), (n, p)
            for row in sample.rows():
                for e in row:
                    assert_canonical(e)


@pytest.mark.parametrize("n, lam", [(3, Fraction(3, 4)), (5, Fraction(3, 4)),
                                    (6, Fraction(1, 2))], ids=str)
def test_ao_samples_with_a_rational_scalar(n, lam):
    # 1 - damping = 1/4 is a rational square, so c = 1/2 takes the path
    # without a radicand product (mc = 1) in all three AO sample kinds
    assert models.checked_parameter(n, ModelId.AO, lam) == Fraction(3, 4)
    for name in ("ao_hamiltonian", "ao_in_jordan_basis", "ao_in_bh_frame"):
        sample = getattr(models, name)(n, lam)
        assert sample == REFERENCE_SAMPLES[name](n, lam), name
        for row in sample.rows():
            for e in row:
                assert_canonical(e)


# each model's parameters for the sharing tests, c = 0 first
_SHARING_PARAMS = {
    ModelId.BH: [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                 Fraction(15, 16)],
    ModelId.AO: [Fraction(0), Fraction(1, 64), Fraction(1, 8),
                 Fraction(31, 64)],
}
_FRAMES = ("identity", "transition", "intertwiner")


def _scalar(n, model, p):
    """The pencil scalar c at p, as a RadicalSum."""
    if model is ModelId.BH:
        return RadicalSum.of(p)
    return RadicalSum.sqrt_rational(1 - models.damping(n, p))


def _band_groups(n, model, frame):
    """Positions where B is nonzero, grouped by their (A, B) value pair."""
    a, b = models.family_pencil(n, model, frame)
    groups = {}
    for i in range(n):
        for j in range(n):
            if b[i, j]:
                groups.setdefault((a[i, j], b[i, j]), []).append((i, j))
    return list(groups.values())


@pytest.mark.parametrize("frame", _FRAMES)
@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_sample_is_the_pencil_in_radical_arithmetic(model, frame):
    # computing each (A, B) pair once changes no entry of A + c * B
    for n in range(2, 13):
        a, b = models.family_pencil(n, model, frame)
        for p in _SHARING_PARAMS[model]:
            c = _scalar(n, model, p)
            assert models._sample(n, model, frame, p) == ExactMatrix(
                [[a[i, j] + c * b[i, j] for j in range(n)]
                 for i in range(n)]), (n, p)


@pytest.mark.parametrize("frame", _FRAMES)
@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_equal_pencil_pairs_share_one_entry(model, frame):
    for n in range(2, 13):
        groups = _band_groups(n, model, frame)
        for p in _SHARING_PARAMS[model][1:]:  # c != 0
            s = models._sample(n, model, frame, p)
            shared = [{id(s[i, j]) for i, j in where} for where in groups]
            assert all(len(ids) == 1 for ids in shared), (n, p)
            assert len(set().union(*shared)) == len(groups), (n, p)
    # the mirror k <-> n - k of the couplings is what makes groups
    if (model, frame) != (ModelId.BH, "identity"):
        assert len(_band_groups(12, model, frame)) < sum(
            map(len, _band_groups(12, model, frame)))


def test_one_perturbed_mirror_entry_is_its_own_group(monkeypatch):
    # A shifted at (1, 0) but not at its mirror (n-1, n-2): grouping by
    # value puts it in a group of its own, so the sample moves there only
    n, where = 6, (1, 0)
    frames = [(model, frame) for model in ModelId
              for frame in ("transition", "intertwiner")]
    params = {ModelId.BH: Fraction(1, 2), ModelId.AO: Fraction(1, 8)}
    clean = {mf: models._sample(n, *mf, params[mf[0]]) for mf in frames}
    original = models.family_pencil

    def perturbed(n, model, frame):
        a, b = original(n, model, frame)
        if frame == "identity":
            return a, b
        return with_entry(a, *where, a[where] + 1), b

    monkeypatch.setattr(models, "family_pencil", perturbed)
    models._sample_operand.cache_clear()
    for (model, frame), before in clean.items():
        a, b = original(n, model, frame)
        if b[where]:
            # in the band, and equal to its mirror before the shift
            assert (a[where], b[where]) == (a[n - 1, n - 2], b[n - 1, n - 2])
        after = models._sample(n, model, frame, params[model])
        moved = [(i, j) for i in range(n) for j in range(n)
                 if after[i, j] != before[i, j]]
        assert moved == [where], (model, frame)
    for row in range(1, 7):
        assert not verify.check_scenario_matching(n, row).passed, row
    for model, frame in frames:
        assert not verify.check_charpoly_similarity(
            n, model, params[model], frame).passed, (model, frame)


def _raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLES))
def test_pencil_families_raise_like_the_definition(name):
    bad = [(1, Fraction(1, 2)), (1, Fraction(-1, 2)), (3, 0.5)]
    if name.startswith("ao"):
        bad += [(4, Fraction(-1, 4)), (2, Fraction(1)), (4, Fraction(3)),
                (6, Fraction(3, 4))]
    for n, p in bad:
        assert _raised(getattr(models, name), n, p) == \
            _raised(REFERENCE_SAMPLES[name], n, p)


def test_ep_helpers():
    assert models.ep_hamiltonian(3, ModelId.BH) == models.bh_hamiltonian(3, 1)
    assert models.ep_hamiltonian(3, ModelId.AO) == models.ao_hamiltonian(3, 0)
    assert models.EP_PARAMETER == {ModelId.BH: ("z", 1),
                                   ModelId.AO: ("lambda", 0)}


def test_package_exports_resolve_once():
    assert len(set(epgate.__all__)) == len(epgate.__all__)
    assert [name for name in epgate.__all__
            if not hasattr(epgate, name)] == []


# ---------------------------------------------------------------------------
# spectral structure
# ---------------------------------------------------------------------------

def test_char_poly_coefficients_are_real_rational():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 6)
        z = Fraction(rng.randint(-7, 7), 8)
        lam = Fraction(rng.randint(0, 3), 8)
        for h in (models.bh_hamiltonian(n, z), models.ao_hamiltonian(n, lam)):
            for c in h.char_poly().coefficients:
                real_rational(c)  # fails if a radical or an i survived


def test_full_degeneracy_at_the_ep():
    for n in range(2, 7):
        assert models.bh_hamiltonian(n, 1).char_poly() == ExactPolynomial.power(n)
        assert models.ao_hamiltonian(n, 0).char_poly() == ExactPolynomial.power(n)


def test_ep_identities_sampled():
    for n in (2, 5, 8):
        j = models.jordan_block(n, 0)
        for model in ModelId:
            h = models.ep_hamiltonian(n, model)
            q = models.transition(n, model)
            assert h @ q == q @ j
