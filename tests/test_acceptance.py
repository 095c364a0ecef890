"""Acceptance gate: every exit criterion at its stated range and tolerance.

Each test prints one PASS/FAIL line (run pytest -s or -rA to see them all).
Exact criteria compare with zero tolerance; the stated runtime budgets are
asserted with a wall clock.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from epgate import models, serialize
from epgate.matrices import ExactMatrix, ExactPolynomial
from epgate.models import ModelId
from epgate.radicals import RadicalSum
from epgate.spectra import (
    FloatPolynomial,
    char_poly_tridiagonal,
    condition_report,
    degeneracy_scan,
    find_roots,
)
from epgate.verify import (
    check_charpoly_similarity,
    check_ep_degeneracy,
    check_ep_schrodinger,
    check_intertwine,
    check_intertwiner_factorization,
    check_jordanization,
    check_scenario_matching,
)
from helpers import (
    GOLDEN_P,
    GOLDEN_Q_AO,
    GOLDEN_Q_BH,
    GOLDEN_R,
    GOLDEN_S,
    is_zero,
    leibniz_char_poly,
    perturb_constructor,
    random_matrix,
    random_radical,
    real_rational,
)


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None and elapsed >= budget_s:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL "
              f"(runtime {elapsed:.2f}s over budget {budget_s}s)")
        pytest.fail(f"runtime {elapsed:.2f}s exceeds {budget_s}s budget")
    print(f"ACCEPTANCE {number:2d} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_golden_reproduction_exact():
    with criterion(1, "golden reproduction, exact, < 1 s", budget_s=1.0):
        for n, expected in GOLDEN_Q_BH.items():
            assert models.transition(n, ModelId.BH) == expected
        for n, expected in GOLDEN_Q_AO.items():
            assert models.transition(n, ModelId.AO) == expected
        for n, expected in GOLDEN_S.items():
            assert models.intertwiner(n) == expected
        for n, expected in GOLDEN_R.items():
            assert models.intertwiner_core(n) == expected
        for n, expected in GOLDEN_P.items():
            assert models.pascal_matrix(n) == expected


def test_criterion_02_ep_schrodinger_to_n20():
    with criterion(2, "EP Schrodinger identities N=2..20, < 60 s", budget_s=60.0):
        for n in range(2, 21):
            for model in ModelId:
                report = check_ep_schrodinger(n, model)
                assert report.passed, (n, model)


def test_criterion_03_intertwiner_factorization_to_n20():
    with criterion(3, "intertwiner factorization N=2..20, < 120 s",
                   budget_s=120.0):
        for n in range(2, 21):
            assert check_intertwiner_factorization(n).passed, n


def test_criterion_04_intertwine_to_n16():
    with criterion(4, "intertwining identity N=2..16"):
        for n in range(2, 17):
            assert check_intertwine(n).passed, n


def test_criterion_05_all_six_scenarios_to_n12():
    with criterion(5, "six crossing scenarios N=2..12 + Jordan interfaces"):
        for n in range(2, 13):
            for row in range(1, 7):
                assert check_scenario_matching(n, row).passed, (n, row)
            for row in (2, 5):
                from epgate.scenarios import hamiltonian_at
                assert hamiltonian_at(row, n, 0) == models.jordan_block(n, 0)


def test_criterion_06_full_ep_degeneracy_to_n16():
    with criterion(6, "exact char poly = E^N at the EP, N=2..16"):
        for n in range(2, 17):
            for model in ModelId:
                assert check_ep_degeneracy(n, model).passed, (n, model)
                assert char_poly_tridiagonal(
                    n, model, models.EP_PARAMETER[model][1]) == \
                    ExactPolynomial.power(n)


def test_criterion_07_off_ep_spectral_reality():
    with criterion(7, "off-EP reality: exact real coefficients + |Im| <= 1e-8"):
        grids = {ModelId.BH: [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
                 ModelId.AO: [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)]}
        for n in range(2, 13):
            for model, params in grids.items():
                for p in params:
                    exact = char_poly_tridiagonal(n, model, p)
                    for c in exact.coefficients:
                        real_rational(c)  # exact: real rational, no radical
                    mirror = FloatPolynomial.from_exact(exact)
                    scale = 1 + max(abs(c) for c in mirror.coefficients)
                    roots = find_roots(mirror, tol=1e-10)
                    assert all(abs(r.imag) <= 1e-8 * scale for r in roots), \
                        (n, model, p)


def test_criterion_08_similarity_preserves_spectrum_to_n8():
    with criterion(8, "similarity spectrum preservation N<=8, both frames"):
        for n in range(2, 9):
            for model, p in ((ModelId.BH, Fraction(1, 2)),
                             (ModelId.AO, Fraction(1, 8))):
                for frame in ("transition", "intertwiner"):
                    report = check_charpoly_similarity(n, model, p, frame)
                    assert report.passed, (n, model, frame)


def test_criterion_09_degeneracy_approach_monotone():
    with criterion(9, "max pairwise root gap shrinks toward the EP"):
        zs = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(15, 16)]
        lams = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        for n in (4, 8):
            gaps = [r.max_pair_gap for r in degeneracy_scan(n, ModelId.BH, zs)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), (n, gaps)
            gaps = [r.max_pair_gap for r in degeneracy_scan(n, ModelId.AO, lams)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), (n, gaps)


def test_criterion_10_conditioning_grows():
    with criterion(10, "kappa_F strictly increasing over N=2..12"):
        entries = condition_report(range(2, 13))
        for family in ("q-bh", "q-ao"):
            kappas = [e.kappa for e in entries if e.family == family]
            assert len(kappas) == 11
            assert all(a < b for a, b in zip(kappas, kappas[1:])), \
                (family, kappas)


def test_criterion_11_property_suites():
    with criterion(11, "property suites (ring axioms, oracles, round trips, "
                       "fault injection)"):
        # ring axioms, >= 10^3 random triples
        rng = random.Random(20240809)
        zero = RadicalSum()
        one = RadicalSum.of(1)
        for _ in range(1000):
            a, b, c = (random_radical(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == zero
            assert a * one == a

        # eval homomorphism at 1e-12 relative
        for _ in range(1000):
            a, b = random_radical(rng), random_radical(rng)
            rhs = complex(a) * complex(b)
            assert abs(complex(a * b) - rhs) <= 1e-12 * (1 + abs(rhs))

        # characteristic polynomial vs brute-force expansion, sizes <= 4
        for n in (1, 2, 3, 4):
            for _ in range(5):
                m = random_matrix(rng, n, max_terms=2, max_radicand=8,
                                  max_num=7, max_den=3)
                assert m.char_poly() == ExactPolynomial(leibniz_char_poly(m))

        # serialization round trips
        for _ in range(50):
            m = random_matrix(rng, 3)
            assert serialize.parse_matrix_text(serialize.render_text(m)) == m
            assert serialize.parse_json(serialize.render_json(m)) == m
        report = check_ep_schrodinger(4, ModelId.BH)
        assert serialize.parse_json(serialize.render_json(report)) == report
        assert serialize.render_json([]) == "[]"

        # fault injection flips every check to failed
        injections = [
            (lambda: check_ep_schrodinger(3, ModelId.BH),
             "transition", "corner"),
            (lambda: check_ep_schrodinger(3, ModelId.AO),
             "transition", "corner"),
            (lambda: check_jordanization(3, ModelId.BH),
             "bh_hamiltonian", "diag"),
            (lambda: check_jordanization(3, ModelId.AO),
             "ao_hamiltonian", "diag"),
            (lambda: check_intertwiner_factorization(4),
             "intertwiner_core", "corner"),
            (lambda: check_intertwine(4), "ao_hamiltonian", (0, 0)),
            (lambda: check_scenario_matching(3, 2), "jordan_block", (1, 0)),
            (lambda: check_charpoly_similarity(3, ModelId.BH, Fraction(1, 2),
                                               "transition"),
             "bh_in_jordan_basis", "diag"),
            (lambda: check_ep_degeneracy(4, ModelId.BH),
             "bh_hamiltonian", "diag"),
        ]
        for run, attr, where in injections:
            assert run().passed  # clean baseline
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(models, attr,
                           perturb_constructor(getattr(models, attr),
                                               where=where))
                broken = run()
            assert not broken.passed, attr
            assert broken.residual is not None
            assert not is_zero(broken.residual)
