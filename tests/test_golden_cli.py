"""Byte-identity of CLI output against committed goldens.

Each file under ``tests/golden/`` is the stdout of one ``epgate`` command,
with report timings masked because they are the only nondeterministic
bytes.  Scenario roots are floats (the rounded closed-form ladder), so they
are compared to 1e-12 while every exact field is compared byte for byte.
"""

import json
import re
from pathlib import Path

import pytest

from epgate.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> (argv, exit code)
CASES = {
    "verify_N2-5.txt": (["verify", "--N", "2..5"], 0),
    "verify_N2-4.json": (["verify", "--N", "2..4", "--format", "json"], 0),
    "verify_N3_literal-zero-ep.txt": (
        ["verify", "--N", "3", "--checks", "scenario-matching",
         "--literal-zero-ep"], 1),
    "verify_N2-4_literal-zero-ep.json": (
        ["verify", "--N", "2..4", "--checks", "scenario-matching",
         "--literal-zero-ep", "--format", "json"], 1),
    "gen_s-rc_N5.txt": (["gen", "--model", "s-rc", "--N", "5"], 0),
}

# scenario golden file -> argv; row 3 at N = 5 carries both families and the
# radicals sqrt(6), sqrt(61) and sqrt(366) in its matrices.  Rows 1, 2 and 3
# together hold all six sample kinds: both Hamiltonians and the four
# transformed families, on both sides of the interface
SCENARIO_CASES = {
    "scenario_row1_N6.json": ["scenario", "--row", "1", "--N", "6",
                              "--t", "-1/2,-1/16,0,1/64,1/8",
                              "--format", "json"],
    "scenario_row2_N6.json": ["scenario", "--row", "2", "--N", "6",
                              "--t", "-1/2,-1/16,0,1/64,1/8",
                              "--format", "json"],
    "scenario_row5_N3.json": ["scenario", "--row", "5", "--N", "3",
                              "--t", "-1/4,0,1/4", "--format", "json"],
    "scenario_row3_N5.json": ["scenario", "--row", "3", "--N", "5",
                              "--t", "-1/16,0,3/64", "--format", "json"],
}


def mask_timings(text: str) -> str:
    text = re.sub(r"\[\d+\.\d{3} ms\]", "[* ms]", text)
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": "*"', text)


def run_cli(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    argv, expected_code = CASES[name]
    code, out, err = run_cli(capsys, argv)
    assert code == expected_code
    assert err == ""
    assert mask_timings(out) == (GOLDEN / name).read_text(encoding="utf-8")


def test_scenario_json_matches_golden(capsys):
    for name, argv in SCENARIO_CASES.items():
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == "", name
        live = json.loads(out)
        golden = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        assert len(live) == len(golden), name
        for got, want in zip(live, golden):
            got_roots, want_roots = got.pop("roots"), want.pop("roots")
            assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
            assert len(got_roots) == len(want_roots)
            for (gr, gi), (wr, wi) in zip(got_roots, want_roots):
                assert abs(complex(gr, gi) - complex(wr, wi)) <= 1e-12
