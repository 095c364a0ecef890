import io
import json
import random
import sys
from fractions import Fraction

import pytest

from epgate import models, serialize
from epgate.matrices import ExactMatrix, ExactPolynomial
from epgate.models import ModelId
from epgate.radicals import GaussianRational, RadicalSum
from epgate.scenarios import sample_path
from epgate.spectra import condition_report, reality_scan
from epgate.verify import (
    CheckId,
    check_ep_schrodinger,
    check_scenario_matching,
    run_suite,
)
from helpers import GOLDEN_Q_BH, GOLDEN_S, random_matrix, random_radical


# ---------------------------------------------------------------------------
# canonical scalar text
# ---------------------------------------------------------------------------

def test_scalar_rendering_reduced_forms():
    assert str(RadicalSum.of(Fraction(3, 4))) == "3/4"
    assert str(RadicalSum.gaussian(0, -2)) == "-2*I"
    assert str(RadicalSum()) == "0"
    assert str(RadicalSum.sqrt_int(2)) == "sqrt(2)"
    assert str(-RadicalSum.sqrt_int(2)) == "-sqrt(2)"
    assert str(RadicalSum({2: 3})) == "3*sqrt(2)"
    assert str(RadicalSum({2: GaussianRational(0, -2)})) == "(-2*I)*sqrt(2)"
    assert str(RadicalSum.gaussian(-1, 1)) == "(-1+1*I)"
    assert str(RadicalSum({3: GaussianRational(-1, 1)})) == "(-1+1*I)*sqrt(3)"


def test_scalar_rendering_sorts_radicands_ascending():
    value = RadicalSum({2: GaussianRational(0, -2), 1: Fraction(1, 2)})
    assert str(value) == "1/2 + (-2*I)*sqrt(2)"
    multi = RadicalSum({5: 1, 2: 1, 3: 1})
    assert str(multi) == "sqrt(2) + sqrt(3) + sqrt(5)"


def test_scalar_text_round_trip_random():
    rng = random.Random(41)
    for _ in range(300):
        a = random_radical(rng)
        assert serialize.parse_scalar_text(str(a)) == a


def test_scalar_json_shape_and_order():
    value = RadicalSum({2: GaussianRational(0, -2), 1: Fraction(1, 2)})
    obj = serialize.to_jsonable(value)
    assert obj["schema"] == "epgate/1"
    assert obj["terms"] == [
        {"radicand": 1, "re": "1/2", "im": "0"},
        {"radicand": 2, "re": "0", "im": "-2"},
    ]
    assert serialize.from_jsonable(obj) == value


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_text_golden():
    assert serialize.render_text(GOLDEN_Q_BH[2]) == "-1*I  1\n1  0"


def test_matrix_text_round_trip():
    rng = random.Random(42)
    fixtures = [GOLDEN_Q_BH[3], GOLDEN_Q_BH[6], GOLDEN_S[5],
                models.ao_hamiltonian(5, Fraction(1, 8)),
                models.transition_inverse(4, ModelId.BH)]
    fixtures += [random_matrix(rng, 3) for _ in range(20)]
    for m in fixtures:
        assert serialize.parse_matrix_text(serialize.render_text(m)) == m


def test_matrix_json_round_trip():
    rng = random.Random(43)
    for m in [GOLDEN_S[4], models.intertwiner_core(6),
              random_matrix(rng, 4)]:
        obj = serialize.to_jsonable(m)
        assert obj["kind"] == "matrix"
        assert serialize.from_jsonable(json.loads(json.dumps(obj))) == m


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomial_json_uses_canonical_strings():
    p = ExactPolynomial([Fraction(-3, 4), 0, 1])
    obj = serialize.to_jsonable(p)
    assert obj["coefficients"] == ["-3/4", "0", "1"]
    assert serialize.from_jsonable(obj) == p


def test_polynomial_text():
    p = ExactPolynomial([Fraction(-3, 4), 0, 1])
    assert serialize.render_text(p) == "-3/4 + E^2"
    q = ExactPolynomial([0, RadicalSum.sqrt_int(2), 1])
    assert serialize.render_text(q) == "(sqrt(2))*E + E^2"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_verification_report_json_round_trip():
    passed = check_ep_schrodinger(4, ModelId.BH)
    failed = check_scenario_matching(3, 1, literal_zero_ep=True)
    for report in (passed, failed):
        obj = json.loads(serialize.render_json(report))
        assert obj["schema"] == "epgate/1"
        back = serialize.from_jsonable(obj)
        assert back == report
        assert back.elapsed_ms == report.elapsed_ms
    assert "residual" not in serialize.to_jsonable(passed)
    assert serialize.from_jsonable(
        serialize.to_jsonable(failed)).residual == failed.residual


def test_report_list_round_trip():
    reports = run_suite([2, 3], checks=[CheckId.INTERTWINE])
    text = serialize.render_json(reports)
    back = serialize.parse_json(text)
    assert back == reports


def test_spectrum_and_condition_round_trip():
    (spec_report,) = reality_scan(3, ModelId.BH, [Fraction(1, 2)])
    back = serialize.from_jsonable(serialize.to_jsonable(spec_report))
    assert back == spec_report
    entries = condition_report([2, 3])
    assert serialize.parse_json(serialize.render_json(entries)) == entries


@pytest.mark.parametrize("row", [1, 4])
def test_path_sample_round_trip(row):
    samples = sample_path(row, 3, [Fraction(-1, 4), 0, Fraction(1, 4)])
    assert serialize.parse_json(serialize.render_json(samples)) == samples


def test_empty_list_renders_as_empty_array():
    assert serialize.render_json([]) == "[]"
    assert serialize.render_text([]) == ""


# ---------------------------------------------------------------------------
# determinism and emission
# ---------------------------------------------------------------------------

def test_rendering_is_deterministic():
    a = models.intertwiner(5)
    pre, post = models.intertwiner_factors(5)
    b = pre @ models.intertwiner_core(5) @ post
    assert serialize.render_json(a) == serialize.render_json(b)
    assert serialize.render_text(a) == serialize.render_text(b)


def test_emit_to_file(tmp_path):
    # a list is written element by element, a generator of its elements
    # too: the same bytes as the rendered string
    passed = check_ep_schrodinger(2, ModelId.BH)
    failed = check_scenario_matching(3, 1, literal_zero_ep=True)
    values = {
        "matrix": GOLDEN_Q_BH[2],
        "empty": [],
        "one-element": [passed],
        "condition-entries": condition_report([2, 3]),
        "reports": run_suite([2, 3]),
        # one-line reports with multi-line ones: a blank line between all
        "reports-with-residual": [passed, failed, passed],
        "reports-residual-first": [failed, passed],
        "spectrum-reports": reality_scan(4, ModelId.AO,
                                         [0, Fraction(1, 8), Fraction(1, 4)]),
        "path-samples": sample_path(2, 4, [Fraction(-1, 8), Fraction(1, 8)]),
    }
    for name, value in values.items():
        for fmt, render in (("json", serialize.render_json),
                            ("text", serialize.render_text)):
            want = (render(value) + "\n").encode()
            target = tmp_path / f"{name}.{fmt}"
            serialize.emit(value, fmt, str(target))
            assert target.read_bytes() == want, (name, fmt)
            if isinstance(value, list):
                serialize.emit(iter(value), fmt, str(target))
                assert target.read_bytes() == want, (name, fmt)
        assert serialize.parse_json(
            (tmp_path / f"{name}.json").read_text()) == value, name
    assert (tmp_path / "matrix.text").read_text() == "-1*I  1\n1  0\n"
    assert (tmp_path / "empty.json").read_text() == "[]\n"
    assert (tmp_path / "empty.text").read_text() == "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_emit_writes_each_element_before_the_next_is_made(monkeypatch, fmt):
    samples = sample_path(2, 4, [Fraction(k, 16) for k in range(-3, 4)])
    written = io.StringIO()
    monkeypatch.setattr(sys, "stdout", written)

    def element_text(value):
        if fmt == "text":
            return serialize.render_text(value)
        return serialize.render_json(value).replace("\n", "\n  ")

    def made():
        for k, sample in enumerate(samples):
            if k:  # sample k - 1 is on the destination before k is made
                assert written.getvalue().endswith(
                    element_text(samples[k - 1]))
            yield sample

    serialize.emit(made(), fmt)
    render = serialize.render_json if fmt == "json" else serialize.render_text
    assert written.getvalue() == render(samples) + "\n"


def test_emit_unwritable_destination_raises_ioerror(tmp_path):
    with pytest.raises(IOError):
        serialize.emit(GOLDEN_Q_BH[2], "text",
                       str(tmp_path / "missing" / "out.txt"))


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        serialize.emit(GOLDEN_Q_BH[2], "yaml")
