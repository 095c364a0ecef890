"""The four benchmark workloads: seeded inputs, one operation each, and the
validators that decide whether an operation's output is correct.

Import this module only after ``src/`` of the checkout is on ``sys.path``;
it drives ``epgate`` through its public functions and its CLI.

Every workload is a closed loop with one client: the next operation is sent
only after the previous one has completed and been validated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from epgate import scenarios, serialize, spectra
from epgate.models import ModelId
from epgate.spectra import ConditionEntry, SpectrumReport
from epgate.verify import VerificationReport


class ValidationError(Exception):
    """An operation completed but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# CLI workloads: one cold ``python -m epgate ...`` per operation
# ---------------------------------------------------------------------------

VERIFY_ARGV = ("verify", "--N", "2..12", "--checks", "all", "--format", "json")
VERIFY_N = range(2, 13)
# per N: six single-report checks, six scenario rows, four similarity
# checks (two models x two frames) and two degeneracy checks
VERIFY_REPORTS = len(VERIFY_N) * (6 + 6 + 4 + 2)

CONDITION_ARGV = ("condition", "--N", "2..24", "--format", "json")
CONDITION_N = range(2, 25)
CONDITION_FAMILIES = ("q-bh", "q-ao", "s-rc")


def validate_verify(stdout: bytes, exit_code: int) -> int:
    """Exit 0, an exact JSON round trip, 198 reports, every one passed."""
    _require(exit_code == 0, f"exit code {exit_code}")
    text = stdout.decode("utf-8")
    try:
        reports = serialize.parse_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"output does not parse: {exc}")
    _require(serialize.render_json(reports) + "\n" == text,
             "output does not round-trip through parse_json")
    _require(all(isinstance(r, VerificationReport) for r in reports),
             "output holds values that are not verification reports")
    _require(len(reports) == VERIFY_REPORTS,
             f"{len(reports)} reports, expected {VERIFY_REPORTS}")
    failed = [f"{r.check.value} N={r.N}" for r in reports if not r.passed]
    _require(not failed, f"failed reports: {failed[:5]}")
    return len(reports)


def validate_condition(stdout: bytes, exit_code: int) -> int:
    """Exit 0, 69 finite kappa, strictly increasing in N per family."""
    _require(exit_code == 0, f"exit code {exit_code}")
    try:
        entries = serialize.parse_json(stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"output does not parse: {exc}")
    _require(all(isinstance(e, ConditionEntry) for e in entries),
             "output holds values that are not condition entries")
    expected = len(CONDITION_FAMILIES) * len(CONDITION_N)
    _require(len(entries) == expected,
             f"{len(entries)} entries, expected {expected}")
    for family in CONDITION_FAMILIES:
        rows = [e for e in entries if e.family == family]
        _require([e.N for e in rows] == list(CONDITION_N),
                 f"{family}: N values {[e.N for e in rows]}")
        kappas = [e.kappa for e in rows]
        _require(all(math.isfinite(k) and k > 0 for k in kappas),
                 f"{family}: kappa not finite and positive")
        _require(all(a < b for a, b in zip(kappas, kappas[1:])),
                 f"{family}: kappa not strictly increasing in N")
    return len(entries)


# ---------------------------------------------------------------------------
# scenario-sweep: scenarios.sample_path in process, warm caches
# ---------------------------------------------------------------------------

SCENARIO_ROWS = range(1, 7)
SCENARIO_N = (8, 12)
T_PER_SIDE = 4
# |t| on the Bose-Hubbard side is k/16 (z stays inside (-1, 1)); on the
# oscillator side it is k/64 <= 31/64, below the largest lambda whose
# couplings stay real at N = 8 and 12 (about 0.544 and 0.509).  Fixed
# denominators keep the exact-arithmetic cost of a sample the same from
# seed to seed; the numerators carry the randomness.
BH_T_DEN = 16
AO_T_DEN = 64


@dataclass(frozen=True)
class ScenarioOp:
    """One ``sample_path`` call."""

    row: int
    N: int
    ts: tuple[Fraction, ...]

    def describe(self) -> str:
        return f"row={self.row} N={self.N} t={[str(t) for t in self.ts]}"


@dataclass(frozen=True)
class SweepOp:
    """One operation of scenario-sweep: every (row, N) pair once.  A single
    path is not the op because paths at N = 8 and N = 12 differ in cost
    several-fold, and the median of such a two-valued mix jumps between the
    two groups; a sweep always holds the same mix."""

    paths: tuple[ScenarioOp, ...]

    def describe(self) -> str:
        return "; ".join(p.describe() for p in self.paths)


def _scenario_ts(rng: random.Random, row: int) -> tuple[Fraction, ...]:
    # rows 1-3 run Bose-Hubbard for t < 0 and the oscillator for t > 0;
    # rows 4-6 are their time reversals
    neg_den, pos_den = ((BH_T_DEN, AO_T_DEN) if row <= 3
                        else (AO_T_DEN, BH_T_DEN))
    neg = [Fraction(-k, neg_den) for k in rng.sample(range(1, 32), T_PER_SIDE)]
    pos = [Fraction(k, pos_den) for k in rng.sample(range(1, 32), T_PER_SIDE)]
    return tuple(sorted(neg + pos))


def scenario_cycles(rng: random.Random) -> Iterator[list[SweepOp]]:
    """Endless stream of one-sweep cycles: every (row, N) pair in a seeded
    order, with fresh seeded times."""
    pairs = [(row, n) for n in SCENARIO_N for row in SCENARIO_ROWS]
    while True:
        rng.shuffle(pairs)
        yield [SweepOp(tuple(ScenarioOp(row, n, _scenario_ts(rng, row))
                             for row, n in pairs))]


def scenario_warm_up() -> None:
    """Fill the transition and intertwiner caches at every N swept: row 2
    touches both transition pairs, row 3 the intertwiner pair."""
    for n in SCENARIO_N:
        scenarios.sample_path(2, n, [Fraction(-1, 16), Fraction(1, 64)])
        scenarios.sample_path(3, n, [Fraction(-1, 16)])


def run_scenario(op: SweepOp):
    return [scenarios.sample_path(p.row, p.N, p.ts) for p in op.paths]


def underlying_family(row: int, t: Fraction) -> tuple[ModelId, Fraction]:
    """The model and parameter a scenario sample is similar to; written out
    here, independently of scenarios.Parametrization."""
    bh_left = row <= 3
    if (t < 0) == bh_left:
        return ModelId.BH, (1 + t if bh_left else 1 - t)
    return ModelId.AO, (t if bh_left else -t)


def validate_sweep(op: SweepOp, paths) -> int:
    """Every path of the sweep passes ``validate_path``."""
    _require(len(paths) == len(op.paths),
             f"{len(paths)} paths for {len(op.paths)} requested")
    return sum(validate_path(p, samples) for p, samples in zip(op.paths, paths))


def validate_path(op: ScenarioOp, samples) -> int:
    """One sample per t, each with the exact characteristic polynomial of
    its underlying family and N finite roots."""
    _require(len(samples) == len(op.ts),
             f"{len(samples)} samples for {len(op.ts)} times")
    for t, sample in zip(op.ts, samples):
        _require(sample.t == t, f"sample at t={sample.t}, expected {t}")
        model, param = underlying_family(op.row, t)
        expected = spectra.char_poly_tridiagonal(op.N, model, param)
        _require(sample.char_poly == expected,
                 f"t={t}: char_poly differs from the {model.value} family "
                 f"at {param}")
        _require(len(sample.roots) == op.N,
                 f"t={t}: {len(sample.roots)} roots, expected {op.N}")
        _require(all(math.isfinite(r.real) and math.isfinite(r.imag)
                     for r in sample.roots), f"t={t}: non-finite root")
    return len(samples)


# ---------------------------------------------------------------------------
# spectrum-scan: spectra.reality_scan one point per operation
# ---------------------------------------------------------------------------

# The library is called per point rather than through ``epgate spectrum``:
# the CLI exits 2 on the first grid point whose root iteration does not
# converge, which would hide every later point of the grid.
SPECTRUM_N = (8, 12, 16, 20, 24)
# Generic points: z = j/64 with 0 < |z| < 1, lambda = j/16 <= 7/16 (inside
# the real-coupling domain at every N above).  Points approaching the EP:
# z = 1 - 2^-k for k = 3..10, lambda = 2^-k for k = 2..5.  Lambda stops at
# 2^-5 because at lambda = 2^-6, N = 24 one point spends more than 15 s in
# radicals.squarefree_decompose (trial division of a ~70-bit radicand), a
# cost that would dwarf everything this workload is meant to measure.
BH_EP_K = range(3, 11)
AO_EP_K = range(2, 6)
# Roots of BH(z) must sit on the ladder +-(N-1-2k)*sqrt(1-z^2); the
# allowed distance scales with the spectral radius N-1.
LADDER_TOL = 1e-6


@dataclass(frozen=True)
class SpectrumOp:
    N: int
    model: ModelId
    param: Fraction

    def describe(self) -> str:
        return f"N={self.N} model={self.model.value} p={self.param}"


def _spectrum_param(rng: random.Random, model: ModelId,
                    near_ep: bool) -> Fraction:
    if model is ModelId.BH:
        if near_ep:
            return 1 - Fraction(1, 2 ** rng.choice(BH_EP_K))
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 64), 64)
    if near_ep:
        return Fraction(1, 2 ** rng.choice(AO_EP_K))
    return Fraction(rng.randrange(1, 8), 16)


def spectrum_cycles(rng: random.Random) -> Iterator[list[SpectrumOp]]:
    """Endless stream of cycles: every (N, model) pair once generic and
    once near its EP per cycle, in a seeded order."""
    cells = [(n, model, near) for n in SPECTRUM_N
             for model in (ModelId.BH, ModelId.AO) for near in (False, True)]
    while True:
        rng.shuffle(cells)
        yield [SpectrumOp(n, model, _spectrum_param(rng, model, near))
               for n, model, near in cells]


def spectrum_warm_up() -> None:
    spectra.reality_scan(8, ModelId.BH, [Fraction(1, 2)])
    spectra.reality_scan(8, ModelId.AO, [Fraction(1, 4)])


def run_spectrum(op: SpectrumOp):
    return spectra.reality_scan(op.N, op.model, [op.param])


def validate_spectrum(op: SpectrumOp, reports) -> int:
    """One report with N finite roots; for BH they match the exact ladder."""
    _require(len(reports) == 1, f"{len(reports)} reports, expected 1")
    report = reports[0]
    _require(isinstance(report, SpectrumReport), "not a spectrum report")
    roots = report.roots
    _require(len(roots) == op.N, f"{len(roots)} roots, expected {op.N}")
    _require(all(math.isfinite(r.real) and math.isfinite(r.imag)
                 for r in roots), "non-finite root")
    if op.model is ModelId.BH:
        unit = math.sqrt(1 - float(op.param) ** 2)
        ladder = sorted((op.N - 1 - 2 * k) * unit for k in range(op.N))
        got = sorted(roots, key=lambda r: r.real)
        dev = max(abs(r - x) for r, x in zip(got, ladder))
        _require(dev <= LADDER_TOL * (op.N - 1),
                 f"roots {dev:.3e} away from the exact ladder")
    return 1


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliWorkload:
    argv: tuple[str, ...]
    validate: Callable[[bytes, int], int]


@dataclass(frozen=True)
class LibWorkload:
    """A run measures whole cycles only, so every run covers the same mix
    of op kinds and the median op time does not depend on where the
    window happened to end."""

    cycles: Callable[[random.Random], Iterator[list]]
    warm_up: Callable[[], None]
    run: Callable
    validate: Callable


WORKLOADS = {
    "verify-cli": CliWorkload(VERIFY_ARGV, validate_verify),
    "scenario-sweep": LibWorkload(scenario_cycles, scenario_warm_up,
                                  run_scenario, validate_sweep),
    "condition-cli": CliWorkload(CONDITION_ARGV, validate_condition),
    "spectrum-scan": LibWorkload(spectrum_cycles, spectrum_warm_up,
                                 run_spectrum, validate_spectrum),
}
