"""Exact-identity checks with structured pass/fail reports.

Every check compares exact matrices (or exact characteristic polynomials)
with zero tolerance and returns a VerificationReport; failures carry the
full left-minus-right residual so a broken entry can be localized.  Checks
never raise on mismatch -- an exact failure is a report, not an error.

Report parameters are named exact rationals.  Conventions: the parameter
name ("z" vs "lambda") identifies the model family; ("row", r) selects a
crossing scenario; ("frame", 0) marks a transition-basis similarity check
and ("frame", 1) an intertwiner-frame one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from . import models, scenarios, spectra
from .matrices import ExactMatrix, ExactPolynomial
from .models import DomainError, ModelId


class CheckId(Enum):
    EP_SCHRODINGER_BH = "ep-schrodinger-bh"
    EP_SCHRODINGER_AO = "ep-schrodinger-ao"
    JORDANIZATION_BH = "jordanization-bh"
    JORDANIZATION_AO = "jordanization-ao"
    INTERTWINER_FACTORIZATION = "intertwiner-factorization"
    INTERTWINE = "intertwine"
    SCENARIO_MATCHING = "scenario-matching"
    CHARPOLY_SIMILARITY = "charpoly-similarity"
    EP_TOTAL_DEGENERACY = "ep-total-degeneracy"


Params = tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class VerificationReport:
    check: CheckId
    N: int
    parameters: Params
    passed: bool
    residual: ExactMatrix | None
    elapsed_ms: float = field(compare=False)

    def __str__(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.parameters)
        head = "PASS" if self.passed else "FAIL"
        line = f"{head}  {self.check.value}  N={self.N}"
        if params:
            line += f"  {params}"
        line += f"  [{self.elapsed_ms:.3f} ms]"
        if self.residual is not None:
            line += "\n  residual:\n" + _indent(str(self.residual))
        return line


def _indent(text: str) -> str:
    return "\n".join("    " + ln for ln in text.splitlines())


def _report(check: CheckId, n: int, params: Params, started: float,
            *pairs) -> VerificationReport:
    """Assemble a report from (left, right) pairs of exact matrices or exact
    polynomials: the check passes iff every pair is equal.  Canonical entries
    make equality structural, so the pairs are compared entry by entry and a
    residual is built only for the first pair that differs."""
    residual = next((_residual(left, right) for left, right in pairs
                     if left != right), None)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return VerificationReport(check, n, params, residual is None, residual,
                              elapsed_ms)


def _residual(left, right) -> ExactMatrix:
    """left - right; for polynomials, the coefficient differences as a
    single-row matrix (degree ascending)."""
    if isinstance(left, ExactPolynomial):
        return ExactMatrix([(left - right).coefficients])
    return left - right


def _ep_params(model: ModelId) -> Params:
    return (models.EP_PARAMETER[model],)


def check_ep_schrodinger(n: int, model: ModelId) -> VerificationReport:
    """H_EP @ Q == Q @ J(0), the generalized eigenvalue problem at the
    exceptional point, checked exactly."""
    started = time.perf_counter()
    check = CheckId(f"ep-schrodinger-{model.value}")
    h = models.ep_hamiltonian(n, model)
    q = models.transition(n, model)
    j = models.jordan_block(n, 0)
    return _report(check, n, _ep_params(model), started, (h @ q, q @ j))


def check_jordanization(n: int, model: ModelId) -> VerificationReport:
    """Q^-1 @ H_EP @ Q == J(0) and Q @ Q^-1 == I, exactly; Q is square, so
    a right inverse is two-sided and Q^-1 @ Q == I follows."""
    started = time.perf_counter()
    check = CheckId(f"jordanization-{model.value}")
    h = models.ep_hamiltonian(n, model)
    q = models.transition(n, model)
    q_inv = models.transition_inverse(n, model)
    j = models.jordan_block(n, 0)
    return _report(check, n, _ep_params(model), started, (q_inv @ h @ q, j),
                   (q @ q_inv, ExactMatrix.identity(n)))


def check_intertwiner_factorization(n: int) -> VerificationReport:
    """The closed-form product diag @ core @ diag and S itself equal the
    route Q_AO @ Q_BH^-1 (only this S pair sees S's sign), and S @ S^-1 == I
    with S^-1 from ``intertwiner_inverse`` (so S^-1 @ S == I: S is square)."""
    started = time.perf_counter()
    via_transitions = (models.transition(n, ModelId.AO)
                       @ models.transition_inverse(n, ModelId.BH))
    pre, post = models.intertwiner_factors(n)
    s = models.intertwiner(n)
    return _report(CheckId.INTERTWINER_FACTORIZATION, n, (), started,
                   (via_transitions, pre @ models.intertwiner_core(n) @ post),
                   (s @ models.intertwiner_inverse(n), ExactMatrix.identity(n)),
                   (s, via_transitions))


def check_intertwine(n: int) -> VerificationReport:
    """S @ H_BH(1) == H_AO(0) @ S in product form (no inverse needed)."""
    started = time.perf_counter()
    s = models.intertwiner(n)
    left = s @ models.bh_hamiltonian(n, 1)
    right = models.ao_hamiltonian(n, 0) @ s
    return _report(CheckId.INTERTWINE, n, (), started, (left, right))


def check_scenario_matching(n: int, row: int,
                            literal_zero_ep: bool = False) -> VerificationReport:
    """Both one-sided t -> 0 limits of a crossing scenario equal its
    exceptional-point matrix.  Limits are exact substitutions at t = 0 (every
    family is continuous in its parameter there by construction).

    ``literal_zero_ep`` compares rows 1 and 6 with H_BH(0), the literal z = 0
    reading of their interface tables; that reading fails by design and is
    excluded from the acceptance suite.
    """
    started = time.perf_counter()
    path = scenarios.scenario_path(row, n)
    zero = Fraction(0)
    left = path.left_family(zero)
    right = path.right_family(zero)
    ep = (models.bh_hamiltonian(n, 0) if literal_zero_ep and row in (1, 6)
          else path.ep_matrix)
    params: Params = (("row", Fraction(row)),)
    return _report(CheckId.SCENARIO_MATCHING, n, params, started,
                   (left, ep), (right, ep))


# Family names, resolved on ``models`` per call so a patched one is checked.
_SIMILARITY_FAMILIES = {
    (ModelId.BH, "transition"): "bh_in_jordan_basis",
    (ModelId.BH, "intertwiner"): "bh_in_ao_frame",
    (ModelId.AO, "transition"): "ao_in_jordan_basis",
    (ModelId.AO, "intertwiner"): "ao_in_bh_frame",
}


def check_charpoly_similarity(n: int, model: ModelId, param,
                              frame: str = "transition") -> VerificationReport:
    """The similarity-transformed Hamiltonian is tridiagonal, and the
    recurrence on its own band equals its family's recurrence read from the
    parameter.  An entry off the band fails the report with the off-band
    part as the residual.  Between the two, the pencil (A, B) of
    ``models.family_pencil`` is proved in product form with no inverse:
    q @ A == H0 @ q and q @ B == H1 @ q (H0 = H_BH(0) or the AO EP diagonal,
    H1 = H_EP - H0), so q @ (A + c*B) == H(c) @ q at every c, with q = Q
    ("transition") or S ("intertwiner"; A @ S == S @ H0 etc. for BH).
    """
    started = time.perf_counter()
    param = models._as_fraction(param)
    if frame not in ("transition", "intertwiner"):
        raise DomainError(f"unknown frame {frame!r}")
    transformed = getattr(models, _SIMILARITY_FAMILIES[model, frame])(n, param)
    params: Params = ((models.EP_PARAMETER[model][0], param),
                      ("frame", Fraction(0 if frame == "transition" else 1)))
    poly, off_band = spectra._tridiagonal_char_poly(transformed)
    a, b = models.family_pencil(n, model, frame)
    ep = models.ep_hamiltonian(n, model)
    h0 = (models.bh_hamiltonian(n, 0) if model is ModelId.BH
          else ExactMatrix.diagonal(ep[k, k] for k in range(n)))
    q = (models.transition(n, model) if frame == "transition"
         else models.intertwiner(n))
    pencil = (((a @ q, q @ h0), (b @ q, q @ (ep - h0)))
              if (model, frame) == (ModelId.BH, "intertwiner")
              else ((q @ a, h0 @ q), (q @ b, (ep - h0) @ q)))
    return _report(CheckId.CHARPOLY_SIMILARITY, n, params, started,
                   (off_band, ExactMatrix.scalar(n, 0)), *pencil,
                   (poly, spectra.char_poly_tridiagonal(n, model, param)))


def check_ep_degeneracy(n: int, model: ModelId) -> VerificationReport:
    """The exact characteristic polynomial at the exceptional point is E**N:
    total spectral collapse, certified with zero tolerance.  The polynomial
    is read from the band of the constructed EP matrix, so a faulty
    constructor shows; an entry off the band is reported as the residual."""
    started = time.perf_counter()
    p, off_band = spectra._tridiagonal_char_poly(
        models.ep_hamiltonian(n, model))
    return _report(CheckId.EP_TOTAL_DEGENERACY, n, _ep_params(model), started,
                   (off_band, ExactMatrix.scalar(n, 0)),
                   (p, ExactPolynomial.power(n)))


_DEFAULT_SIMILARITY_PARAMS = {ModelId.BH: Fraction(1, 2),
                              ModelId.AO: Fraction(1, 8)}

# CheckId -> its reports at one N.  Each entry calls its check_* through this
# module's globals when run, so a wrapped or patched check is the one that
# runs.  Only scenario-matching reads ``literal_zero_ep``, which ``run_suite``
# passes to it alone.
_SUITE = {
    CheckId.EP_SCHRODINGER_BH: lambda n: [check_ep_schrodinger(n, ModelId.BH)],
    CheckId.EP_SCHRODINGER_AO: lambda n: [check_ep_schrodinger(n, ModelId.AO)],
    CheckId.JORDANIZATION_BH: lambda n: [check_jordanization(n, ModelId.BH)],
    CheckId.JORDANIZATION_AO: lambda n: [check_jordanization(n, ModelId.AO)],
    CheckId.INTERTWINER_FACTORIZATION:
        lambda n: [check_intertwiner_factorization(n)],
    CheckId.INTERTWINE: lambda n: [check_intertwine(n)],
    CheckId.SCENARIO_MATCHING: lambda n, literal_zero_ep: [
        check_scenario_matching(n, row, literal_zero_ep=literal_zero_ep)
        for row in range(1, 7)],
    CheckId.CHARPOLY_SIMILARITY: lambda n: [
        check_charpoly_similarity(n, model, _DEFAULT_SIMILARITY_PARAMS[model],
                                  frame)
        for model in ModelId for frame in ("transition", "intertwiner")],
    CheckId.EP_TOTAL_DEGENERACY: lambda n: [
        check_ep_degeneracy(n, model) for model in ModelId],
}


def run_suite(n_values, checks=None,
              literal_zero_ep: bool = False) -> list[VerificationReport]:
    """Run the selected checks over the given dimensions.

    The run is dimension-major: for each N, ascending, every ``models``
    cache is emptied (``models.clear_caches``) and then every selected check
    runs at that N.  So each dimension runs from cold caches, a range holds
    one dimension's matrices at a time, and a library caller's warm
    ``models`` caches are emptied too (the last N's stay filled).  Reports
    come back ordered by (check, N, parameters) regardless of that schedule.
    ``checks`` defaults to all of them; similarity checks run at the default
    off-EP parameters.
    """
    wanted = (list(CheckId) if checks is None
              else list(dict.fromkeys(CheckId(c) for c in checks)))
    n_list = sorted(set(int(n) for n in n_values))
    reports: list[VerificationReport] = []
    for n in n_list:
        models.clear_caches()
        for check in wanted:
            reports.extend(
                _SUITE[check](n, literal_zero_ep)
                if check is CheckId.SCENARIO_MATCHING else _SUITE[check](n))
    order = {c: i for i, c in enumerate(CheckId)}
    reports.sort(key=lambda r: (order[r.check], r.N, r.parameters))
    return reports
