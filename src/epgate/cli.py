"""Command-line surface.

Subcommands:

* ``gen``       print one generated matrix (Hamiltonians at exact rational
                parameters, transition matrices, intertwiner and its core,
                binomial matrix, Jordan block),
* ``verify``    run exact identity checks over a dimension range,
* ``spectrum``  certified closed-form spectra of one family over an exact
                parameter grid,
* ``scenario``  sample one exceptional-point crossing path,
* ``condition`` Frobenius condition estimates of the transition matrices.

Exit codes: 0 when everything requested passed, 1 when some exact check
failed, 2 on usage or domain errors, a float overflow, or a matrix that
lacks the structure a construction relies on (``StructureError``).
``spectrum`` and ``scenario`` write each point's report as it is made, after
one pass over every point that raises any error a point can raise, so exit 2
writes nothing.
Parameters are exact rationals ("3/4"); decimal shorthand is accepted only
inside ``spectrum --grid`` and is converted by exact base-10 parsing, so
binary floats never touch the exact layer.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import models, scenarios, serialize, spectra, verify
from .matrices import StructureError
from .models import DimensionError, DomainError, ModelId
from .radicals import InvalidRadicand


class UsageError(ValueError):
    pass


def _parse_rational(text: str, allow_decimal: bool = False) -> Fraction:
    text = text.strip()
    if "." in text and not allow_decimal:
        raise UsageError(
            f"{text!r}: decimal parameters are only accepted in the "
            "spectrum grid; use an exact rational like 3/4")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{text!r} is not an exact rational")


def _parse_n_range(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"{text!r} is not an N or N range like 2..6")


# BH has no domain edge to end a grid, so its size is bounded up front.
# Every point is checked before the first report is written, and reports are
# written as they are made: at N = 4, 100 000 points print 48 MB of JSON.
MAX_GRID_POINTS = 100_000


def _parse_grid(text: str, check) -> Iterator[Fraction]:
    """The grid's points, each passed to ``check``: the start point first,
    then, once the point count (stop - start) // step + 1 is within
    ``MAX_GRID_POINTS``, the others in order, so a point outside the domain
    stops the grid before the rest is checked.  Returns the points again,
    made one at a time; no list of them is kept."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (_parse_rational(p, allow_decimal=True) for p in parts)
    if step <= 0:
        raise UsageError("grid step must be positive")
    if start > stop:
        raise UsageError(f"grid {text!r} is empty")
    check(start)
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has {count} points, above the "
                         f"limit of {MAX_GRID_POINTS}")
    # point k, start + k * step, as one Fraction of integers (a + k*c) / den:
    # a third of the cost of a Fraction product and sum
    den = start.denominator * step.denominator
    a, c = int(start * den), int(step * den)
    for k in range(1, count):
        check(Fraction(a + k * c, den))
    return (Fraction(a + k * c, den) for k in range(count))


def _parse_t_list(text: str) -> list[Fraction]:
    t_values = [_parse_rational(p) for p in text.split(",") if p.strip()]
    if not t_values:
        raise UsageError(f"--t {text!r} names no time")
    return t_values


_GEN_BUILDERS = {
    "q-bh": lambda n: models.transition(n, ModelId.BH),
    "q-ao": lambda n: models.transition(n, ModelId.AO),
    "s-rc": lambda n: models.intertwiner(n),
    "r": lambda n: models.intertwiner_core(n),
    "pascal": lambda n: models.pascal_matrix(n),
    "jordan": lambda n: models.jordan_block(n, 0),
}


def _cmd_gen(args) -> int:
    if args.model == "bh":
        if getattr(args, "lambda_") is not None:
            raise UsageError("--lambda does not apply to the bh model")
        z = Fraction(1) if args.z is None else _parse_rational(args.z)
        matrix = models.bh_hamiltonian(args.N, z)
    elif args.model == "ao":
        if args.z is not None:
            raise UsageError("--z does not apply to the ao model")
        lam = (Fraction(0) if args.lambda_ is None
               else _parse_rational(args.lambda_))
        matrix = models.ao_hamiltonian(args.N, lam)
    else:
        if args.z is not None or args.lambda_ is not None:
            raise UsageError(f"--z/--lambda do not apply to {args.model}")
        matrix = _GEN_BUILDERS[args.model](args.N)
    serialize.emit(matrix, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    n_values = _parse_n_range(args.N)
    if args.checks == "all":
        checks = None
    else:
        try:
            checks = [verify.CheckId(c.strip())
                      for c in args.checks.split(",") if c.strip()]
        except ValueError as exc:
            raise UsageError(str(exc))
        if not checks:
            raise UsageError(f"--checks {args.checks!r} names no check")
    reports = verify.run_suite(n_values, checks,
                               literal_zero_ep=args.literal_zero_ep)
    serialize.emit(reports, args.format, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_spectrum(args) -> int:
    model = ModelId(args.model)
    grid = _parse_grid(
        args.grid, lambda p: spectra.checked_ladder_d(args.N, model, p))
    serialize.emit(spectra.spectrum_reports(args.N, model, grid),
                   args.format, args.out)
    return 0


def _cmd_scenario(args) -> int:
    t_values = _parse_t_list(args.t)
    path = scenarios.scenario_path(args.row, args.N)
    for t in t_values:
        scenarios.check_sample(path, t)
    serialize.emit(scenarios.path_samples(path, t_values),
                   args.format, args.out)
    return 0


def _cmd_condition(args) -> int:
    entries = spectra.condition_report(_parse_n_range(args.N))
    serialize.emit(entries, args.format, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epgate",
        description="Exact exceptional-point model constructions and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="generate one model matrix")
    p.add_argument("--model", required=True,
                   choices=("bh", "ao", "q-bh", "q-ao", "s-rc", "r",
                            "pascal", "jordan"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--z", default=None, help="bh parameter (exact rational)")
    p.add_argument("--lambda", dest="lambda_", default=None,
                   help="ao parameter (exact rational)")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run exact identity checks")
    p.add_argument("--N", required=True, help="dimension or range, e.g. 2..6")
    p.add_argument("--checks", default="all",
                   help="comma list of check ids, or 'all'")
    p.add_argument("--literal-zero-ep", action="store_true",
                   help="read the scenario interface tables literally "
                        "(z = 0); fails by design")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="numeric spectra over a parameter grid")
    p.add_argument("--model", required=True, choices=("bh", "ao"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", required=True, help="start:stop:step rationals")
    add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scenario", help="sample a crossing path")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", required=True, help="comma list of exact times")
    add_common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("condition", help="transition-matrix conditioning")
    p.add_argument("--N", required=True, help="dimension or range, e.g. 2..12")
    add_common(p)
    p.set_defaults(func=_cmd_condition)

    return parser


_VALUE_FLAGS = ("--N", "--t", "--z", "--lambda", "--grid")


def _join_negative_values(argv: list[str]) -> list[str]:
    # "--t -1/4,0" would be read as a second flag; fold the value into
    # "--t=-1/4,0" so negative rationals pass through argparse
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and \
                argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        # the parser is not kept: the command's reports reuse its memory
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (UsageError, DomainError, DimensionError, InvalidRadicand,
            StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
