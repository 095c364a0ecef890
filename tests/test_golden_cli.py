"""Byte-identity of CLI output against committed goldens.

Each ``.txt`` and ``.json`` golden under ``tests/golden/`` except
``cli_digests.json`` is the stdout of one ``epgate`` command, with report
timings masked because they are the only nondeterministic bytes.  Scenario
roots are floats (the rounded closed-form ladder), so they are compared to
1e-12 while every exact field is compared byte for byte.
``cli_digests.json`` holds digests of many more commands (see below).
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
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


# ---------------------------------------------------------------------------
# Digest manifest: sha256 of (exit code, stdout, stderr), timings masked, for
# every command in DIGEST_CASES.  Float fields (roots, kappa) are hashed as
# printed, so unlike the scenario goldens above they pin the last digit.
# Regenerate it, only when an output change is intended, with:
#     PYTHONPATH=src python tests/test_golden_cli.py
# ---------------------------------------------------------------------------

DIGESTS = GOLDEN / "cli_digests.json"

_GEN_MODELS = ("bh", "ao", "q-bh", "q-ao", "s-rc", "r", "pascal", "jordan")

DIGEST_CASES = [
    ["verify", "--N", "2..12", "--format", "json"],
    ["verify", "--N", "2..5"],
    *(["verify", "--N", "2..7", "--checks", "scenario-matching",
       "--literal-zero-ep", "--format", fmt] for fmt in ("text", "json")),
    *(["scenario", "--row", str(row), "--N", str(n),
       "--t", "-1/8,-1/64,0,1/64,1/8", "--format", fmt]
      for row in range(1, 7) for n in (3, 6, 9) for fmt in ("text", "json")),
    *(["gen", "--model", model, "--N", str(n), "--format", fmt]
      for model in _GEN_MODELS for n in (2, 5) for fmt in ("text", "json")),
    *(["spectrum", "--model", model, "--N", str(n), "--grid", grid,
       "--format", fmt]
      for model, n, grid in (("bh", 5, "-1:1:1/4"), ("ao", 6, "0:1/2:1/8"))
      for fmt in ("text", "json")),
    *(["condition", "--N", "2..8", "--format", fmt]
      for fmt in ("text", "json")),
    # long outputs, written element by element: 2 000 spectrum reports and
    # a 64-sample path crossing the interface (t = k/64, k = -32..31)
    *(["spectrum", "--model", "bh", "--N", "4", "--grid", "0:1999:1",
       "--format", fmt] for fmt in ("text", "json")),
    *(["scenario", "--row", "2", "--N", "8",
       "--t", ",".join(f"{k}/64" for k in range(-32, 32)), "--format", fmt]
      for fmt in ("text", "json")),
    # error paths: exit code 2 and one message on stderr
    ["gen", "--model", "bh", "--N", "1"],
    ["gen", "--model", "ao", "--N", "4", "--lambda", "-1/2"],
    ["gen", "--model", "ao", "--N", "6", "--lambda", "1"],
    ["gen", "--model", "ao", "--N", "3", "--lambda", "1/3."],
    ["spectrum", "--model", "ao", "--N", "6", "--grid", "1/2:1:1/4"],
    ["scenario", "--row", "2", "--N", "6", "--t", "1"],
    ["verify", "--N", "1..3"],
]


def cli_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    payload = json.dumps([code, mask_timings(out.getvalue()),
                          mask_timings(err.getvalue())])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_cli_output_matches_digest_manifest():
    manifest = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = [" ".join(argv) for argv in DIGEST_CASES]
    assert sorted(manifest) == sorted(keys)
    changed = [key for key, argv in zip(keys, DIGEST_CASES)
               if cli_digest(argv) != manifest[key]]
    assert changed == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {" ".join(argv): cli_digest(argv) for argv in DIGEST_CASES},
        indent=1) + "\n", encoding="utf-8")
