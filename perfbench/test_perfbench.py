"""Smoke tests of the benchmark itself.

    python -m pytest perfbench

Each workload runs at the smallest window (one cycle of inputs), untraced
and traced, and must print every metric with its unit; each validator must
count a corrupted output as a failure; the tracer must see the work behind
constructors that ``spectra`` captured at import.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from epgate import models, scenarios, serialize, spectra, verify  # noqa: E402
from epgate.models import ModelId  # noqa: E402
from epgate.radicals import RadicalSum  # noqa: E402
from epgate.spectra import ConditionEntry  # noqa: E402

import workloads as wl  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import (PER_LAYER, RESULT_LAYERS, Tracer,  # noqa: E402
                     layer_values)


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    expected = PER_LAYER if trace else END_TO_END
    in_result = RESULT_LAYERS if trace else dict(END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one cycle: a single CLI op, or every op kind of a library workload;
    # a traced run sends each input twice
    assert result["attempted"] >= 1 and result["attempted"] % (trace + 1) == 0
    assert result["correct"] == (result["failed"] == 0)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {n: u for n, u in expected if n in in_result}
    for name, unit in expected:
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    floor = [ln for ln in lines if ln.startswith("# least peak RSS")]
    assert len(floor) == isinstance(wl.WORKLOADS[workload], wl.CliWorkload)
    if floor and not trace:
        # a CLI op's reading is its own, above what the launcher imposes
        floor_mb = float(floor[0].split(": ")[1].split()[0])
        assert floor_mb < result["metrics"]["peak_rss_mb"]["value"] / 2


def test_run_outside_a_checkout_fails_without_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-cli",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- validators ---------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_reports():
    # 18 reports at N = 2, repeated to the size of the real output
    reports = verify.run_suite([2])
    return reports * (wl.VERIFY_REPORTS // len(reports))


def _json(value) -> bytes:
    return (serialize.render_json(value) + "\n").encode()


def test_verify_validator(verify_reports):
    assert wl.validate_verify(_json(verify_reports), 0) == wl.VERIFY_REPORTS
    failed = list(verify_reports)
    failed[7] = dataclasses.replace(failed[7], passed=False)
    bad_outputs = [(_json(failed), 0), (_json(verify_reports[1:]), 0),
                   (_json(verify_reports), 1), (b"not json", 0)]
    for stdout, code in bad_outputs:
        with pytest.raises(wl.ValidationError):
            wl.validate_verify(stdout, code)


def _condition_entries():
    return [ConditionEntry(N=n, family=f, kappa=float(n * n))
            for f in wl.CONDITION_FAMILIES for n in wl.CONDITION_N]


def test_condition_validator():
    entries = _condition_entries()
    assert wl.validate_condition(_json(entries), 0) == len(entries)
    for i, kappa in ((5, math.nan), (5, 1.0), (0, -1.0)):
        bad = list(entries)
        bad[i] = dataclasses.replace(bad[i], kappa=kappa)
        with pytest.raises(wl.ValidationError):
            wl.validate_condition(_json(bad), 0)
    with pytest.raises(wl.ValidationError):
        wl.validate_condition(_json(entries[:-1]), 0)


def test_scenario_validator():
    op = wl.ScenarioOp(row=4, N=4, ts=(Fraction(-1, 64), Fraction(1, 16)))
    samples = scenarios.sample_path(op.row, op.N, op.ts)
    assert wl.validate_path(op, samples) == 2
    short_roots = [samples[0], dataclasses.replace(
        samples[1], roots=samples[1].roots[:-1])]
    swapped_polys = [dataclasses.replace(samples[0],
                                         char_poly=samples[1].char_poly),
                     samples[1]]
    for bad in (short_roots, swapped_polys, samples[:1]):
        with pytest.raises(wl.ValidationError):
            wl.validate_path(op, bad)
    sweep = wl.SweepOp((op, op))
    assert wl.validate_sweep(sweep, [samples, samples]) == 4
    for bad in ([samples], [samples, short_roots]):
        with pytest.raises(wl.ValidationError):
            wl.validate_sweep(sweep, bad)


def test_spectrum_validator():
    op = wl.SpectrumOp(N=8, model=ModelId.BH, param=Fraction(1, 2))
    reports = spectra.reality_scan(op.N, op.model, [op.param])
    assert wl.validate_spectrum(op, reports) == 1
    roots = reports[0].roots
    for bad_roots in (roots[:-1], (roots[0] + 1e-3,) + roots[1:],
                      (complex(math.nan, 0),) + roots[1:]):
        bad = [dataclasses.replace(reports[0], roots=bad_roots)]
        with pytest.raises(wl.ValidationError):
            wl.validate_spectrum(op, bad)


def test_underlying_family_matches_the_scenario_parametrization():
    for row in wl.SCENARIO_ROWS:
        param = scenarios.scenario_path(row, 4).parametrization
        for t in (Fraction(-1, 4), Fraction(1, 4)):
            name, fn = ((param.left_name, param.left) if t < 0
                        else (param.right_name, param.right))
            model = ModelId.BH if name == "z" else ModelId.AO
            assert wl.underlying_family(row, t) == (model, fn(t))


# -- tracer -------------------------------------------------------------------

def test_tracer_sees_captured_constructors_and_restores():
    original_mul = vars(RadicalSum)["__mul__"]
    for fn in vars(models).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with tracer.span("root"):
            # cold constructors, reached through spectra._FAMILIES
            spectra.condition_report([2, 3])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert vars(RadicalSum)["__mul__"] is original_mul
    values = layer_values(tracer.spans, tracer.op_counts)[0]
    assert values["matrices.inverse_calls"] > 0
    assert values["matrices.matmul_calls"] > 0
    assert values["radicals.mul_calls"] > 0
    assert 0 < values["models.cache_hit_ratio"] < 1
    self_sum = sum(v for k, v in values.items() if k.endswith("_s"))
    root = next(s for s in tracer.spans if s[0] == "root")
    assert self_sum == pytest.approx(root[2] - root[1])
