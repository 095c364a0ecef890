import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epgate import models, serialize
from epgate.cli import main
from epgate.models import ModelId
from helpers import GOLDEN_Q_BH

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_text_golden(capsys):
    code, out, _ = run_cli(capsys, "gen", "--model", "q-bh", "--N", "2")
    assert code == 0
    assert out == "-1*I  1\n1  0\n"


def test_gen_matches_library_matrices(capsys):
    cases = {
        ("q-bh", "6"): models.transition(6, ModelId.BH),
        ("q-ao", "5"): models.transition(5, ModelId.AO),
        ("s-rc", "4"): models.intertwiner(4),
        ("r", "6"): models.intertwiner_core(6),
        ("pascal", "5"): models.pascal_matrix(5),
        ("jordan", "3"): models.jordan_block(3, 0),
    }
    for (model, n), expected in cases.items():
        code, out, _ = run_cli(capsys, "gen", "--model", model, "--N", n,
                               "--format", "json")
        assert code == 0
        assert serialize.parse_json(out) == expected


def test_gen_hamiltonians_with_parameters(capsys):
    code, out, _ = run_cli(capsys, "gen", "--model", "bh", "--N", "3",
                           "--z", "1/2", "--format", "json")
    assert code == 0
    assert serialize.parse_json(out) == models.bh_hamiltonian(3, Fraction(1, 2))
    code, out, _ = run_cli(capsys, "gen", "--model", "ao", "--N", "4",
                           "--lambda", "1/8", "--format", "json")
    assert code == 0
    assert serialize.parse_json(out) == models.ao_hamiltonian(4, Fraction(1, 8))


def test_gen_defaults_to_ep_parameters(capsys):
    code, out, _ = run_cli(capsys, "gen", "--model", "bh", "--N", "3",
                           "--format", "json")
    assert serialize.parse_json(out) == models.bh_hamiltonian(3, 1)


def test_gen_rejects_decimal_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "--model", "bh", "--N", "3",
                           "--z", "0.5")
    assert code == 2
    assert "exact rational" in err


def test_gen_rejects_mismatched_parameter(capsys):
    code, _, _ = run_cli(capsys, "gen", "--model", "ao", "--N", "3", "--z", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--model", "pascal", "--N", "3",
                         "--z", "1")
    assert code == 2


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "q.json"
    code, out, _ = run_cli(capsys, "gen", "--model", "q-bh", "--N", "2",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert serialize.parse_json(target.read_text()) == GOLDEN_Q_BH[2]


def test_gen_unwritable_out(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "--model", "q-bh", "--N", "2",
                           "--out", str(tmp_path / "no" / "dir" / "x.txt"))
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_small_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2..4")
    assert code == 0
    assert "FAIL" not in out
    assert "ep-schrodinger-bh" in out


def test_verify_all_checks_to_n6(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2..6", "--checks", "all")
    assert code == 0
    assert "FAIL" not in out
    # every check family shows up
    for name in ("ep-schrodinger-ao", "jordanization-bh",
                 "intertwiner-factorization", "intertwine",
                 "scenario-matching", "charpoly-similarity",
                 "ep-total-degeneracy"):
        assert name in out


def test_verify_selected_checks_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2..6",
                           "--checks", "intertwine,intertwiner-factorization",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 10
    assert all(r["passed"] for r in reports)
    assert {r["check"] for r in reports} == \
        {"intertwine", "intertwiner-factorization"}


def test_verify_literal_zero_interface_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "3",
                           "--checks", "scenario-matching",
                           "--literal-zero-ep")
    assert code == 1
    assert "FAIL" in out


def test_verify_bad_check_name(capsys):
    code, _, err = run_cli(capsys, "verify", "--N", "3",
                           "--checks", "no-such-check")
    assert code == 2


def test_verify_empty_check_list_is_usage_error(capsys):
    # a run that checks nothing must not report a pass
    for checks in (",", ""):
        code, out, err = run_cli(capsys, "verify", "--N", "3",
                                 "--checks", checks)
        assert code == 2
        assert out == ""
        assert "names no check" in err


def test_verify_bad_range(capsys):
    code, _, _ = run_cli(capsys, "verify", "--N", "6..2")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--N", "-3..-1"], "model dimension must be >= 2, got -3"),
    (["condition", "--N", "-2..3"], "condition report needs N >= 2, got -2"),
], ids=["verify", "condition"])
def test_negative_n_range_is_a_domain_error(capsys, argv, message):
    # a range that starts with "-" is the value of --N, not a second flag
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_json_grid(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "bh", "--N", "4",
                           "--grid", "1/4:3/4:1/4", "--format", "json")
    assert code == 0
    items = json.loads(out)
    assert [i["param"] for i in items] == [0.25, 0.5, 0.75]
    assert all("exploratory_equidistant_deviation" not in i for i in items)
    assert all(i["max_imag"] == 0 for i in items)


def test_ep_roots_print_as_positive_zeros(capsys):
    zeros = ", ".join(["(0.0, 0.0)"] * 4)
    for argv in (("scenario", "--row", "2", "--N", "4", "--t", "0"),
                 ("spectrum", "--model", "bh", "--N", "4", "--grid", "1:1:1")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "-0.0" not in out
        assert f"roots: {zeros}\n" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert "-0.0" not in out
        (item,) = json.loads(out)
        assert item["roots"] == [[0.0, 0.0]] * 4


def test_spectrum_accepts_decimal_grid(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "ao", "--N", "3",
                           "--grid", "0.125:0.25:0.125", "--format", "json")
    assert code == 0
    items = json.loads(out)
    assert [i["param"] for i in items] == [0.125, 0.25]
    assert all("exploratory_equidistant_deviation" not in i for i in items)


def test_spectrum_bad_grid(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--model", "bh", "--N", "4",
                         "--grid", "1/4:3/4")
    assert code == 2
    code, _, _ = run_cli(capsys, "spectrum", "--model", "bh", "--N", "4",
                         "--grid", "3/4:1/4:1/4")
    assert code == 2


def test_spectrum_float_overflow_is_domain_error(capsys):
    # sqrt(|1 - z^2|) leaves the float range at |z| ~ 1.34e154
    code, out, err = run_cli(capsys, "spectrum", "--model", "bh", "--N", "4",
                             "--grid", "1e200:1e200:1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, _ = run_cli(capsys, "spectrum", "--model", "bh", "--N", "4",
                           "--grid", "1e150:1e150:1")
    assert code == 0
    assert "roots:" in out


def run_process(*argv, timeout):
    """``python -m epgate`` in a child process, killed after ``timeout`` s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "epgate", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


# every module a fresh interpreter loads for the package, each subcommand
# and the root finder, printed as JSON with the subcommands' exit codes
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
import epgate
from epgate import FloatPolynomial, find_roots
from epgate.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
find_roots(FloatPolynomial((2, -3, 1)))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def test_package_and_cli_import_only_the_standard_library():
    # site may already hold third-party modules (.pth hooks) before the
    # package loads, so only what the package brings in is checked
    commands = [["verify", "--N", "2..4"],
                ["gen", "--model", "q-bh", "--N", "3"],
                ["scenario", "--row", "3", "--N", "3", "--t", "1/8"],
                ["spectrum", "--model", "ao", "--N", "4",
                 "--grid", "1/8:1/4:1/8"],
                ["condition", "--N", "2..4"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * len(commands)
    assert "epgate.cli" in loaded
    foreign = [m for m in loaded if m.split(".")[0] != "epgate"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_spectrum_ao_at_a_400_digit_lambda_finishes():
    # the certified spectrum reads damping(lambda) from the parameter; built
    # through the radical Hamiltonian it factored ~800-digit coupling
    # radicands and did not finish in minutes
    done = run_process("spectrum", "--model", "ao", "--N", "6", "--grid",
                       "1e-400:1e-400:1", "--format", "json", timeout=30)
    assert done.returncode == 0, done.stderr
    (item,) = json.loads(done.stdout)
    # sqrt(damping) = sqrt(1e-400 + 1e-800): below the normal floats, d
    # must not round to the exceptional point's 0
    want = [m * 1e-200 for m in (-5, -3, -1, 1, 3, 5)]
    for (re, im), w in zip(item["roots"], want):
        assert im == 0.0
        assert re == pytest.approx(w, rel=1e-12)


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def test_scenario_samples_json(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--row", "2", "--N", "3",
                           "--t", "-1/4,0,1/4", "--format", "json")
    assert code == 0
    samples = json.loads(out)
    assert [s["t"] for s in samples] == ["-1/4", "0", "1/4"]
    middle = serialize.from_jsonable(samples[1]["matrix"])
    assert middle == models.jordan_block(3, 0)


def test_scenario_invalid_row_exits_2(capsys):
    code, _, err = run_cli(capsys, "scenario", "--row", "9", "--N", "3",
                           "--t", "0")
    assert code == 2
    assert "row" in err


def test_scenario_dimension_one_exits_2(capsys):
    code, out, err = run_cli(capsys, "scenario", "--row", "2", "--N", "1",
                             "--t", "0")
    assert code == 2
    assert out == ""
    assert "dimension" in err


def test_scenario_empty_time_list_is_usage_error(capsys):
    for t in (",", ""):
        code, out, err = run_cli(capsys, "scenario", "--row", "2",
                                 "--N", "3", "--t", t)
        assert code == 2
        assert out == ""
        assert "names no time" in err


def test_scenario_out_of_domain_time(capsys):
    code, _, _ = run_cli(capsys, "scenario", "--row", "1", "--N", "3",
                         "--t", "-5/2")
    assert code == 2


@pytest.mark.parametrize("row, n, t", [
    (3, 3, "1/1" + "0" * 400),  # scalar radicand (10^400 - 1) * 10^400
    (2, 8, f"1/{2 ** 40}"),  # scalar: (2^120 - 2^80 - 2^40 - 1) * 2^120
])
def test_scenario_radicand_that_cannot_be_split_is_refused(row, n, t):
    # the radicand of the sample's scalar sqrt(1 - damping) keeps a cofactor
    # with no prime factor below 2^21 and two or more above it; trial
    # division to its cube root ran for hours
    done = run_process("scenario", "--row", str(row), "--N", str(n),
                       "--t", t, timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: cannot split a ")
    assert len(done.stderr.splitlines()) == 1


# ---------------------------------------------------------------------------
# condition
# ---------------------------------------------------------------------------

def test_condition_json(capsys):
    code, out, _ = run_cli(capsys, "condition", "--N", "2..4",
                           "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 9
    assert {e["family"] for e in entries} == {"q-bh", "q-ao", "s-rc"}


def test_condition_text(capsys):
    code, out, _ = run_cli(capsys, "condition", "--N", "2")
    assert code == 0
    assert out.startswith("condition q-bh  N=2")


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    assert main(["gen"]) == 2  # missing required arguments
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
