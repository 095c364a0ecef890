import time
from fractions import Fraction

import pytest

from epgate import models, scenarios, spectra, verify
from epgate.matrices import ExactMatrix, ExactPolynomial, StructureError
from epgate.radicals import RadicalSum
from epgate.models import DimensionError, DomainError, ModelId
from epgate.verify import (
    CheckId,
    VerificationReport,
    check_charpoly_similarity,
    check_ep_degeneracy,
    check_ep_schrodinger,
    check_intertwine,
    check_intertwiner_factorization,
    check_jordanization,
    check_scenario_matching,
    run_suite,
    _report,
)
from helpers import (
    fresh_model_caches,
    is_zero,
    model_cache_infos,
    perturb_constructor,
    with_entry,
)


def _assert_clean_pass(report: VerificationReport):
    assert report.passed
    assert report.residual is None
    assert report.elapsed_ms >= 0


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def test_ep_schrodinger_samples():
    _assert_clean_pass(check_ep_schrodinger(2, ModelId.BH))
    _assert_clean_pass(check_ep_schrodinger(5, ModelId.AO))


def test_jordanization_samples():
    _assert_clean_pass(check_jordanization(6, ModelId.BH))
    _assert_clean_pass(check_jordanization(2, ModelId.AO))
    _assert_clean_pass(check_jordanization(8, ModelId.AO))


def test_intertwiner_factorization_samples():
    for n in (2, 5, 12):
        _assert_clean_pass(check_intertwiner_factorization(n))


def test_intertwine_samples():
    for n in (2, 4, 10):
        _assert_clean_pass(check_intertwine(n))


def test_scenario_matching_samples():
    report = check_scenario_matching(3, 2)
    _assert_clean_pass(report)
    assert ("row", Fraction(2)) in report.parameters
    _assert_clean_pass(check_scenario_matching(4, 1))
    _assert_clean_pass(check_scenario_matching(4, 3))


def test_scenario_matching_rejects_bad_row():
    with pytest.raises(DomainError):
        check_scenario_matching(3, 7)
    with pytest.raises(DimensionError):
        check_scenario_matching(1, 2)


def test_scenario_rows_share_ep_interfaces_under_time_reversal():
    for n in (3, 5):
        for row in (1, 2, 3):
            a = scenarios.scenario_path(row, n).ep_matrix
            b = scenarios.scenario_path(7 - row, n).ep_matrix
            assert a == b


def test_charpoly_similarity_samples():
    _assert_clean_pass(check_charpoly_similarity(3, ModelId.BH, Fraction(1, 2),
                                                 "transition"))
    _assert_clean_pass(check_charpoly_similarity(3, ModelId.AO, Fraction(1, 8),
                                                 "intertwiner"))
    report = check_charpoly_similarity(2, ModelId.BH, 1, "transition")
    _assert_clean_pass(report)  # EP case: both polynomials are E^2


def test_charpoly_similarity_rejects_unknown_frame():
    # "identity" is a pencil frame (the Hamiltonians) but no similarity
    for frame in ("sideways", "identity"):
        with pytest.raises(DomainError, match=f"^unknown frame '{frame}'$"):
            check_charpoly_similarity(3, ModelId.BH, Fraction(1, 2), frame)


def test_ep_degeneracy_samples():
    for n in (2, 6, 9):
        for model in ModelId:
            _assert_clean_pass(check_ep_degeneracy(n, model))


# ---------------------------------------------------------------------------
# fault injection: one perturbed entry flips each check to failed
# ---------------------------------------------------------------------------

def _assert_detected(report: VerificationReport):
    assert not report.passed
    assert report.residual is not None
    assert not is_zero(report.residual)


def test_fault_injection_ep_schrodinger(monkeypatch):
    monkeypatch.setattr(models, "transition",
                        perturb_constructor(models.transition))
    _assert_detected(check_ep_schrodinger(3, ModelId.BH))


def test_fault_injection_ep_schrodinger_ao(monkeypatch):
    monkeypatch.setattr(models, "transition",
                        perturb_constructor(models.transition, where=(1, 1)))
    _assert_detected(check_ep_schrodinger(4, ModelId.AO))


def test_fault_injection_jordanization(monkeypatch):
    monkeypatch.setattr(models, "bh_hamiltonian",
                        perturb_constructor(models.bh_hamiltonian, where="diag"))
    _assert_detected(check_jordanization(3, ModelId.BH))


def test_fault_injection_jordanization_ao(monkeypatch):
    monkeypatch.setattr(models, "ao_hamiltonian",
                        perturb_constructor(models.ao_hamiltonian, where="diag"))
    _assert_detected(check_jordanization(3, ModelId.AO))


def test_fault_injection_intertwiner_factorization(monkeypatch):
    _assert_clean_pass(check_intertwiner_factorization(4))
    monkeypatch.setattr(models, "intertwiner_core",
                        perturb_constructor(models.intertwiner_core))
    _assert_detected(check_intertwiner_factorization(4))


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_jordanization_transition_inverse(monkeypatch, model):
    monkeypatch.setattr(models, "transition_inverse",
                        perturb_constructor(models.transition_inverse))
    _assert_detected(check_jordanization(4, model))


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_pascal_inverse(monkeypatch, model):
    # both transition inverses carry the Pascal inverse's closed form
    # (-1)^(m+q-n+1) * C(m, n-1-q) entry by entry: a fault at any entry of
    # its support, q >= n-1-m, fails the check
    n = 4
    clean = models.transition_inverse
    for m in range(n):
        for q in range(n - 1 - m, n):
            monkeypatch.setattr(models, "transition_inverse",
                                perturb_constructor(clean, where=(m, q)))
            _assert_detected(check_jordanization(n, model))


def test_patched_constructor_does_not_outlive_its_patch():
    # patched while the caches are cold, intertwiner is baked into the
    # cached S^-1(4), which is S itself; clearing the caches with the undo
    # keeps it out of later checks (the conftest fixture does this around
    # every monkeypatching test).  The fault sits below the diagonal: at
    # even N, S @ S^-1 cannot see a corner fault of S.
    with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
        mp.setattr(models, "intertwiner",
                   perturb_constructor(models.intertwiner, where=(1, 0)))
        _assert_detected(check_intertwine(4))
        _assert_detected(check_intertwiner_factorization(4))
    _assert_clean_pass(check_intertwine(4))
    _assert_clean_pass(check_intertwiner_factorization(4))


def test_fault_injection_intertwiner_factorization_inverse(monkeypatch):
    # a wrong S^-1 is a failed report, not an error; no scenario sample and
    # no pencil certificate reads S^-1, so those reports still pass
    monkeypatch.setattr(models, "intertwiner_inverse",
                        perturb_constructor(models.intertwiner_inverse))
    _assert_detected(check_intertwiner_factorization(4))
    for row in range(1, 7):
        _assert_clean_pass(check_scenario_matching(4, row))
    for model, param in ((ModelId.BH, Fraction(1, 2)),
                         (ModelId.AO, Fraction(1, 8))):
        _assert_clean_pass(check_charpoly_similarity(4, model, param,
                                                     "intertwiner"))


# A fault below the diagonal: nothing raises, every report that reads the
# faulty constructor fails with its residual, and the others, every scenario
# row included, pass.  S is written entry by entry, so only
# intertwiner-factorization reads the core.

@pytest.mark.parametrize("n", [3, 4, 6])
def test_core_fault_below_the_diagonal_fails_only_the_factorization(
        monkeypatch, n):
    monkeypatch.setattr(models, "intertwiner_core", perturb_constructor(
        models.intertwiner_core, where=(1, 0)))
    for check in CheckId:
        for report in run_suite([n], [check]):
            if check is CheckId.INTERTWINER_FACTORIZATION:
                _assert_detected(report)
            else:
                _assert_clean_pass(report)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_intertwiner_fault_below_the_diagonal_fails_every_check_reading_s(
        monkeypatch, n):
    monkeypatch.setattr(models, "intertwiner", perturb_constructor(
        models.intertwiner, where=(1, 0)))
    for check in CheckId:
        for report in run_suite([n], [check]):
            if (check in (CheckId.INTERTWINER_FACTORIZATION,
                          CheckId.INTERTWINE)
                    or ("frame", Fraction(1)) in report.parameters):
                _assert_detected(report)
            else:
                _assert_clean_pass(report)


# The fault model of the transition constructors.  A spy on each
# constructor and on every check_* of ``verify`` finds which reports read
# it; a fault at any of four positions must then fail only reports that
# read it, fail each of them at some position, and never raise.

_FAULT_CONSTRUCTORS = ("transition", "transition_inverse", "intertwiner",
                       "intertwiner_inverse")


def _constructors_read_per_report(n: int,
                                  names=_FAULT_CONSTRUCTORS) -> dict:
    """(check, parameters) of each report of ``run_suite([n])`` -> the
    ``models`` constructors in ``names`` that its check called."""
    reads, current = {}, []

    def spy(fn, name):
        def wrapper(*args, **kwargs):
            current[-1].add(name)
            return fn(*args, **kwargs)
        return wrapper

    def check_spy(fn):
        def wrapper(*args, **kwargs):
            current.append(set())
            report = fn(*args, **kwargs)
            reads[report.check, report.parameters] = current.pop()
            return report
        return wrapper

    with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
        for name in names:
            mp.setattr(models, name, spy(getattr(models, name), name))
        for name in [k for k in vars(verify) if k.startswith("check_")]:
            mp.setattr(verify, name, check_spy(getattr(verify, name)))
        run_suite([n])
    return reads


@pytest.mark.parametrize("n", [3, 4, 6])
def test_every_report_reading_a_transition_constructor_catches_its_fault(n):
    reads = _constructors_read_per_report(n)
    assert len(reads) == len(run_suite([n]))
    # the spy's table, by check; a change to what a check reads shows here
    assert {name: {check.value for (check, _), names in reads.items()
                   if name in names}
            for name in _FAULT_CONSTRUCTORS} == {
        "transition": {"ep-schrodinger-bh", "ep-schrodinger-ao",
                       "jordanization-bh", "jordanization-ao",
                       "intertwiner-factorization", "charpoly-similarity"},
        "transition_inverse": {"jordanization-bh", "jordanization-ao",
                               "intertwiner-factorization"},
        "intertwiner": {"intertwiner-factorization", "intertwine",
                        "charpoly-similarity"},
        "intertwiner_inverse": {"intertwiner-factorization"},
    }
    for name in _FAULT_CONSTRUCTORS:
        readers = {key for key, names in reads.items() if name in names}
        caught = set()
        for where in ("corner", "diag", (1, 0), (1, 2)):
            with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
                mp.setattr(models, name, perturb_constructor(
                    getattr(models, name), where=where))
                reports = run_suite([n])
            failed = {(r.check, r.parameters): r for r in reports
                      if not r.passed}
            assert set(failed) <= readers, (name, where)
            for report in failed.values():
                _assert_detected(report)
            caught |= set(failed)
        assert caught == readers, (name, readers - caught)


# The same fault model for the other matrix constructors a check reads:
# the Hamiltonians, the EP member, the Jordan block, the intertwiner's core
# and the four transformed families.  ep_hamiltonian builds its matrix
# through bh_hamiltonian or ao_hamiltonian, so each of those two is read
# wherever the EP member is.

_MODEL_FAULT_CONSTRUCTORS = (
    "bh_hamiltonian", "ao_hamiltonian", "ep_hamiltonian", "jordan_block",
    "intertwiner_core", "bh_in_jordan_basis", "ao_in_jordan_basis",
    "bh_in_ao_frame", "ao_in_bh_frame")

_READ_BY_SAMPLES = {"charpoly-similarity", "scenario-matching"}


@pytest.mark.parametrize("n", [3, 4, 6])
def test_every_report_reading_a_model_constructor_catches_its_fault(n):
    reads = _constructors_read_per_report(n, _MODEL_FAULT_CONSTRUCTORS)
    assert {name: {check.value for (check, _), names in reads.items()
                   if name in names}
            for name in _MODEL_FAULT_CONSTRUCTORS} == {
        "bh_hamiltonian": {"ep-schrodinger-bh", "jordanization-bh",
                           "intertwine", "scenario-matching",
                           "charpoly-similarity", "ep-total-degeneracy"},
        "ao_hamiltonian": {"ep-schrodinger-ao", "jordanization-ao",
                           "intertwine", "scenario-matching",
                           "charpoly-similarity", "ep-total-degeneracy"},
        "ep_hamiltonian": {"ep-schrodinger-bh", "ep-schrodinger-ao",
                           "jordanization-bh", "jordanization-ao",
                           "charpoly-similarity", "ep-total-degeneracy"},
        "jordan_block": {"ep-schrodinger-bh", "ep-schrodinger-ao",
                         "jordanization-bh", "jordanization-ao",
                         "scenario-matching"},
        "intertwiner_core": {"intertwiner-factorization"},
        "bh_in_jordan_basis": _READ_BY_SAMPLES,
        "ao_in_jordan_basis": _READ_BY_SAMPLES,
        "bh_in_ao_frame": _READ_BY_SAMPLES,
        "ao_in_bh_frame": _READ_BY_SAMPLES,
    }
    for name in _MODEL_FAULT_CONSTRUCTORS:
        readers = {key for key, names in reads.items() if name in names}
        caught = set()
        for where in ("corner", "diag", (1, 0), (1, 2)):
            with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
                mp.setattr(models, name, perturb_constructor(
                    getattr(models, name), where=where))
                reports = run_suite([n])
            failed = {(r.check, r.parameters): r for r in reports
                      if not r.passed}
            assert set(failed) <= readers, (name, where)
            for report in failed.values():
                _assert_detected(report)
            caught |= set(failed)
        assert caught == readers, (name, readers - caught)


def _negated(fn):
    return lambda *args: ExactMatrix.scalar(args[0], 0) - fn(*args)


@pytest.mark.parametrize("name", _FAULT_CONSTRUCTORS)
def test_negated_transition_constructor_fails_a_report(name):
    # the sign fault: a check homogeneous in a constructor's matrix (S @ S^-1
    # with S^-1 = S, S @ H = H' @ S) passes it negated, so some report must
    # compare the matrix itself
    with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
        mp.setattr(models, name, _negated(getattr(models, name)))
        reports = run_suite([3, 4, 6])
    failed = [r for r in reports if not r.passed]
    assert failed, name
    for report in failed:
        _assert_detected(report)


def test_negated_intertwiner_fails_the_factorization_at_every_n():
    with pytest.MonkeyPatch.context() as mp, fresh_model_caches():
        mp.setattr(models, "intertwiner", _negated(models.intertwiner))
        reports = run_suite(range(2, 9), [CheckId.INTERTWINER_FACTORIZATION])
    assert [r.N for r in reports if not r.passed] == list(range(2, 9))


def test_every_models_cache_hits_at_every_n():
    # the cache policy: a constructor is cached only if a command reads the
    # same result twice within one N; run_suite empties the caches, with
    # their statistics, before each N
    assert sorted(fn.__name__ for fn in models._CACHES) == [
        "_sample_operand", "family_pencil", "intertwiner", "transition",
        "transition_inverse"]
    for n in range(2, 9):
        run_suite([n])
        idle = [fn.__name__ for fn in models._CACHES if not fn.cache_info().hits]
        assert idle == [], n


def test_fault_injection_intertwine(monkeypatch):
    monkeypatch.setattr(models, "ao_hamiltonian",
                        perturb_constructor(models.ao_hamiltonian, where=(0, 0)))
    _assert_detected(check_intertwine(4))


@pytest.mark.parametrize("row", [2, 5])
def test_fault_injection_scenario_matching(monkeypatch, row):
    # row 5 is built as the time reversal of row 2 and must see the patch too
    monkeypatch.setattr(models, "jordan_block",
                        perturb_constructor(models.jordan_block, where=(1, 0)))
    _assert_detected(check_scenario_matching(3, row))


def test_fault_injection_charpoly_similarity(monkeypatch):
    monkeypatch.setattr(models, "bh_in_jordan_basis",
                        perturb_constructor(models.bh_in_jordan_basis,
                                            where="diag"))
    _assert_detected(check_charpoly_similarity(3, ModelId.BH, Fraction(1, 2),
                                               "transition"))


# The check reads the transformed matrix's band: an entry off the band is
# a failed report whose residual is the off-band part, not a polynomial.

@pytest.mark.parametrize("name,model", [
    ("bh_in_jordan_basis", ModelId.BH), ("bh_in_ao_frame", ModelId.BH),
    ("ao_in_jordan_basis", ModelId.AO), ("ao_in_bh_frame", ModelId.AO)])
def test_fault_injection_charpoly_similarity_off_band(monkeypatch, name,
                                                      model):
    frame = "transition" if "jordan" in name else "intertwiner"
    param = Fraction(1, 2) if model is ModelId.BH else Fraction(1, 8)
    _assert_clean_pass(check_charpoly_similarity(5, model, param, frame))
    monkeypatch.setattr(models, name,
                        perturb_constructor(getattr(models, name)))
    report = check_charpoly_similarity(5, model, param, frame)
    _assert_detected(report)
    assert report.residual == ExactMatrix([[0, 0, 0, 0, 1]] + [[0] * 5] * 4)


# The similarity side builds its pencil from the constructors, while the
# recurrence side reads the Hamiltonian's data from the parameter: a faulty
# constructor makes the two sides differ.

@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_charpoly_similarity_hamiltonian(monkeypatch, model):
    name = f"{model.value}_hamiltonian"
    monkeypatch.setattr(models, name,
                        perturb_constructor(getattr(models, name), where="diag"))
    param = Fraction(1, 2) if model is ModelId.BH else Fraction(1, 8)
    for frame in ("transition", "intertwiner"):
        _assert_detected(check_charpoly_similarity(4, model, param, frame))


# Every sample, the Hamiltonians included, is read from the lru-cached
# ``models._sample_operand``; the conftest fixture empties it before the
# patch, so the operand is built from the patched pencil and a wrong pencil
# still fails the checks that use it.  A wrong frame matrix (Q or S) fails
# the pencil certificate of charpoly-similarity.

def test_fault_injection_intertwiner_through_the_pencil(monkeypatch):
    monkeypatch.setattr(models, "intertwiner",
                        perturb_constructor(models.intertwiner))
    _assert_detected(check_charpoly_similarity(4, ModelId.AO, Fraction(1, 8),
                                               "intertwiner"))
    _assert_detected(check_charpoly_similarity(4, ModelId.BH, Fraction(1, 2),
                                               "intertwiner"))


def test_fault_injection_ao_transition_through_the_pencil(monkeypatch):
    monkeypatch.setattr(models, "transition",
                        perturb_constructor(models.transition))
    _assert_detected(check_charpoly_similarity(4, ModelId.AO, Fraction(1, 8),
                                               "transition"))


@pytest.mark.parametrize("where", [(0, 3), (0, 0)],
                         ids=["off-band", "in-band"])
def test_fault_injection_family_pencil(monkeypatch, where):
    # A's entry shifted where B is zero (shared into every sample) or where
    # B is nonzero (summed with c * B in each sample)
    original = models.family_pencil
    i, j = where
    for model in ModelId:
        for frame in ("transition", "intertwiner"):
            _, b = original(4, model, frame)
            assert bool(b[i, j]) == (where == (0, 0))  # in-band iff B != 0

    def perturbed(n, model, frame):
        a, b = original(n, model, frame)
        if frame == "identity":
            return a, b
        return with_entry(a, i, j, a[i, j] + 1), b

    monkeypatch.setattr(models, "family_pencil", perturbed)
    for row in range(1, 7):
        _assert_detected(check_scenario_matching(4, row))
    for model, param in ((ModelId.BH, Fraction(1, 2)),
                         (ModelId.AO, Fraction(1, 8))):
        for frame in ("transition", "intertwiner"):
            _assert_detected(check_charpoly_similarity(4, model, param, frame))


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_hamiltonian_pencil(monkeypatch, model):
    # A of the "identity" pencil shifted where B is nonzero: every
    # Hamiltonian sample is read from that pencil, so the EP checks fail
    original = models.family_pencil
    _, b = original(4, model, "identity")
    i, j = next((i, j) for i in range(4) for j in range(4) if b[i, j])

    def perturbed(n, m, frame):
        a, b = original(n, m, frame)
        if (m, frame) != (model, "identity"):
            return a, b
        return with_entry(a, i, j, a[i, j] + 1), b

    monkeypatch.setattr(models, "family_pencil", perturbed)
    _assert_detected(check_ep_degeneracy(4, model))
    _assert_detected(check_jordanization(4, model))


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_jacobi_data(monkeypatch, model):
    # jacobi_data is the parameter side of the exact spectra, built apart
    # from the Hamiltonians' pencils: a wrong coupling product fails the
    # polynomial pair of charpoly-similarity and the ladder proof
    original = models.jacobi_data

    def perturbed(n, model, param):
        d, b = original(n, model, param)
        return d, [2 * b[0]] + b[1:]

    monkeypatch.setattr(models, "jacobi_data", perturbed)
    param = Fraction(1, 2) if model is ModelId.BH else Fraction(1, 8)
    for n in (3, 4, 6):
        for frame in ("transition", "intertwiner"):
            _assert_detected(check_charpoly_similarity(n, model, param, frame))
        with pytest.raises(StructureError):
            spectra.certified_spectrum(n, model, param)


def test_fault_injection_ep_degeneracy(monkeypatch):
    monkeypatch.setattr(models, "bh_hamiltonian",
                        perturb_constructor(models.bh_hamiltonian, where="diag"))
    _assert_detected(check_ep_degeneracy(4, ModelId.BH))


def test_fault_injection_ep_degeneracy_ao(monkeypatch):
    monkeypatch.setattr(models, "ao_hamiltonian",
                        perturb_constructor(models.ao_hamiltonian, where="diag"))
    _assert_detected(check_ep_degeneracy(4, ModelId.AO))


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_fault_injection_ep_degeneracy_corner(monkeypatch, model):
    # a non-tridiagonal EP matrix is a failed report, not an error
    name = f"{model.value}_hamiltonian"
    monkeypatch.setattr(models, name,
                        perturb_constructor(getattr(models, name)))
    report = check_ep_degeneracy(4, model)
    _assert_detected(report)
    assert report.residual == ExactMatrix([[0, 0, 0, 1]] + [[0] * 4] * 3)


def test_charpoly_similarity_at_larger_n():
    # the band recurrence proves every (model, frame) pair at N = 24 and 32
    for n in (24, 32):
        for model, param in ((ModelId.BH, Fraction(1, 2)),
                             (ModelId.AO, Fraction(1, 8))):
            for frame in ("transition", "intertwiner"):
                _assert_clean_pass(
                    check_charpoly_similarity(n, model, param, frame))


def test_literal_zero_interface_reading_fails_on_bh_rows():
    for row in (1, 6):
        report = check_scenario_matching(3, row, literal_zero_ep=True)
        _assert_detected(report)
    for row in (2, 3, 4, 5):
        _assert_clean_pass(check_scenario_matching(3, row, literal_zero_ep=True))


# ---------------------------------------------------------------------------
# report assembly from (left, right) pairs
# ---------------------------------------------------------------------------

def _pairs_report(*pairs) -> VerificationReport:
    return _report(CheckId.INTERTWINE, 2, (), time.perf_counter(), *pairs)


def test_report_residual_is_the_first_unequal_matrix_pair():
    a = ExactMatrix([[1, RadicalSum.sqrt_int(2)], [3, 4]])
    b = ExactMatrix([[1, 0], [3, Fraction(9, 2)]])
    c = ExactMatrix([[5, 6], [7, 8]])
    report = _pairs_report((a, a), (a, b), (b, c))
    assert not report.passed
    assert report.residual == a - b
    assert report.residual == ExactMatrix(
        [[0, RadicalSum.sqrt_int(2)], [0, Fraction(-1, 2)]])
    assert _pairs_report((b, c), (a, b)).residual == b - c


def test_report_residual_is_the_first_unequal_polynomial_pair():
    e3 = ExactPolynomial.power(3)
    p = ExactPolynomial([1, 0, 0, 1])
    report = _pairs_report((e3, e3), (e3, p), (p, ExactPolynomial([0])))
    assert not report.passed
    # the coefficient row of E^3 - (E^3 + 1), trimmed as the difference is
    assert report.residual == ExactMatrix([[-1]])
    q = ExactPolynomial([0, RadicalSum.sqrt_int(3), 1])
    assert _pairs_report((p, q)).residual == ExactMatrix(
        [[1, -RadicalSum.sqrt_int(3), -1, 1]])
    # a matrix pair after an unequal polynomial pair is not reported
    off = ExactMatrix([[0, 1], [0, 0]])
    assert _pairs_report((e3, p), (off, ExactMatrix.scalar(2, 0))
                         ).residual == ExactMatrix([[-1]])
    assert _pairs_report((e3, e3), (off, ExactMatrix.scalar(2, 0))
                         ).residual == off


def test_report_passes_equal_values_built_by_different_routes():
    root2 = RadicalSum.sqrt_int(2)
    squared = ExactMatrix([[root2]]) @ ExactMatrix([[root2]])
    _assert_clean_pass(_pairs_report(
        (squared, ExactMatrix([[2]])),
        (ExactMatrix([[root2 * root2, RadicalSum.sqrt_int(8)]]),
         ExactMatrix([[Fraction(4, 2), 2 * root2]])),
        (ExactPolynomial([root2 * root2, 0, 0]), ExactPolynomial([2])),
        # the band reader's zeros against a constructed zero matrix
        (spectra._tridiagonal_char_poly(models.jordan_block(4, 0))[1],
         ExactMatrix.scalar(4, 0))))


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_suite_all_checks_pass():
    reports = run_suite(range(2, 7))
    assert reports
    assert all(r.passed for r in reports)


def test_run_suite_is_deterministic():
    a = run_suite([4, 2, 3], checks=[CheckId.SCENARIO_MATCHING,
                                     CheckId.EP_SCHRODINGER_BH])
    b = run_suite([2, 3, 4], checks=[CheckId.SCENARIO_MATCHING,
                                     CheckId.EP_SCHRODINGER_BH])
    assert [(r.check, r.N, r.parameters, r.passed) for r in a] == \
        [(r.check, r.N, r.parameters, r.passed) for r in b]
    # check-major then N-major ordering
    keys = [(r.check.value, r.N) for r in a]
    assert keys == sorted(keys, key=lambda kv: ([c.value for c in CheckId].index(kv[0]), kv[1]))


def test_run_suite_holds_one_dimension_at_a_time():
    # every N starts from emptied caches, a caller's warm entry included, so
    # a range leaves exactly what the last N alone leaves (cache_clear also
    # resets the hit and miss counts)
    models.transition(20, ModelId.BH)
    reports = run_suite(range(2, 8))
    after_range = model_cache_infos()
    separate = [run_suite([n]) for n in range(2, 8)]
    assert after_range == model_cache_infos()
    assert after_range["transition"].currsize == 2
    assert after_range["transition_inverse"].currsize == 2
    assert after_range["_sample_operand"].currsize == 6
    order = list(CheckId)
    assert reports == sorted((r for part in separate for r in part),
                             key=lambda r: (order.index(r.check), r.N))


def test_run_suite_empty_checks():
    assert run_suite(range(2, 5), checks=[]) == []


# reports per N of each check, in CheckId order
@pytest.mark.parametrize(
    "check, per_n", zip(CheckId, [1, 1, 1, 1, 1, 1, 6, 4, 2]),
    ids=lambda v: v.value if isinstance(v, CheckId) else str(v))
def test_run_suite_single_check_count(check, per_n):
    reports = run_suite(range(2, 13), checks=[check])
    assert len(reports) == 11 * per_n
    assert all(r.check is check and r.passed for r in reports)


def test_run_suite_drops_duplicate_checks():
    reports = run_suite([2], ["intertwine", "intertwine"])
    assert len(reports) == 1
    reports = run_suite([2], ["intertwine", "ep-schrodinger-bh", "intertwine"])
    assert [r.check for r in reports] == [CheckId.EP_SCHRODINGER_BH,
                                          CheckId.INTERTWINE]


def test_run_suite_accepts_check_values():
    reports = run_suite([3], checks=["intertwine"])
    assert len(reports) == 1
    assert reports[0].check is CheckId.INTERTWINE
