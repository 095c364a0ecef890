"""Canonical, deterministic serialization of every reportable value.

Text output uses the canonical scalar rendering (terms sorted by radicand,
coefficients as reduced Gaussian rationals) with two-space column separation
inside matrices; JSON output is versioned by a top-level ``"schema":
"epgate/1"`` field on every object (lists are plain arrays of such objects).
Identical values yield byte-identical output, so golden tests can diff.

Parsers invert the formats exactly: ``parse_scalar_text`` /
``parse_matrix_text`` for the text forms, ``from_jsonable`` / ``parse_json``
for the JSON form of every kind ``to_jsonable`` emits.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice

from .matrices import ExactMatrix, ExactPolynomial
from .models import ModelId
from .radicals import ZERO, GaussianRational, RadicalSum
from .scenarios import PathSample
from .spectra import ConditionEntry, SpectrumReport
from .verify import CheckId, VerificationReport

SCHEMA = "epgate/1"


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def render_text(value) -> str:
    if isinstance(value, (RadicalSum, ExactMatrix, VerificationReport)):
        return str(value)
    if isinstance(value, ExactPolynomial):
        return _poly_text(value)
    if isinstance(value, SpectrumReport):
        roots = ", ".join(_complex_text(r) for r in value.roots)
        return (f"spectrum {value.model.value}  N={value.N}  "
                f"param={value.param!r}\n"
                f"  max_imag={value.max_imag!r}  "
                f"max_pair_gap={value.max_pair_gap!r}  "
                f"min_pair_gap={value.min_pair_gap!r}\n"
                f"  roots: {roots}")
    if isinstance(value, ConditionEntry):
        return f"condition {value.family}  N={value.N}  kappa={value.kappa!r}"
    if isinstance(value, PathSample):
        roots = ", ".join(_complex_text(r) for r in value.roots)
        return (f"t={value.t}\n{value.matrix}\n"
                f"char poly: {_poly_text(value.char_poly)}\n"
                f"roots: {roots}")
    if isinstance(value, (list, tuple)):
        parts = [render_text(v) for v in value]
        sep = "\n" if all("\n" not in p for p in parts) else "\n\n"
        return sep.join(parts)
    raise TypeError(f"cannot render {type(value).__name__} as text")


def _complex_text(c: complex) -> str:
    return f"({c.real!r}, {c.imag!r})"


def _poly_text(p: ExactPolynomial) -> str:
    parts = []
    for k, c in enumerate(p.coefficients):
        if not c:
            continue
        cs = str(c)
        if " + " in cs or ("sqrt" in cs and k > 0):
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            e = "E" if k == 1 else f"E^{k}"
            parts.append(e if cs == "1" else f"{cs}*{e}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def _scalar_terms(x: RadicalSum) -> list[dict]:
    return [{"radicand": m, "re": str(c.re), "im": str(c.im)}
            for m, c in x.items()]


def to_jsonable(value):
    if isinstance(value, RadicalSum):
        return {"schema": SCHEMA, "kind": "scalar",
                "terms": _scalar_terms(value)}
    if isinstance(value, ExactMatrix):
        return {"schema": SCHEMA, "kind": "matrix",
                "entries": [[_scalar_terms(e) for e in row]
                            for row in value.rows()]}
    if isinstance(value, ExactPolynomial):
        return {"schema": SCHEMA, "kind": "polynomial",
                "coefficients": [str(c) for c in value.coefficients]}
    if isinstance(value, VerificationReport):
        out = {"schema": SCHEMA, "kind": "verification-report",
               "check": value.check.value, "N": value.N,
               "params": [{"name": k, "value": str(v)}
                          for k, v in value.parameters],
               "passed": value.passed,
               "elapsed_ms": value.elapsed_ms}
        if value.residual is not None:
            out["residual"] = to_jsonable(value.residual)
        return out
    if isinstance(value, SpectrumReport):
        return {"schema": SCHEMA, "kind": "spectrum-report",
                "N": value.N, "model": value.model.value,
                "param": value.param,
                "roots": [[r.real, r.imag] for r in value.roots],
                "max_imag": value.max_imag,
                "max_pair_gap": value.max_pair_gap,
                "min_pair_gap": value.min_pair_gap}
    if isinstance(value, ConditionEntry):
        return {"schema": SCHEMA, "kind": "condition-entry",
                "N": value.N, "family": value.family, "kappa": value.kappa}
    if isinstance(value, PathSample):
        return {"schema": SCHEMA, "kind": "path-sample",
                "t": str(value.t),
                "matrix": to_jsonable(value.matrix),
                "char_poly": to_jsonable(value.char_poly),
                "roots": [[r.real, r.imag] for r in value.roots]}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    return json.dumps(to_jsonable(value), indent=2)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(value, fmt: str = "text", destination=None) -> None:
    """Serialize ``value`` to a path (stdout when destination is None or
    "-") as ``render_text(value)`` or ``render_json(value)`` and a newline.
    A list, a tuple or an iterator such as a generator is written one
    element at a time: a list's JSON by ``json.dump``, which converts each
    element when it reaches it; otherwise each element as it is made, in
    text once the first element spans lines (else the separator depends on
    every element)."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    with (nullcontext(sys.stdout) if destination in (None, "-")
          else open(destination, "w", encoding="utf-8")) as fh:
        if fmt == "json" and isinstance(value, list):
            json.dump(value, fh, indent=2, default=to_jsonable)
        else:
            fh.writelines(_chunks(value, fmt))
        fh.write("\n")


def _chunks(value, fmt: str):
    """The rendering of ``value`` in pieces, one element of a sequence per
    piece; in JSON each element's own dump, its lines indented two spaces,
    between the separators ``json.dumps(..., indent=2)`` gives a list."""
    if not isinstance(value, (list, tuple, Iterator)):
        yield render_text(value) if fmt == "text" else render_json(value)
        return
    items = iter(value)
    if fmt == "json":
        sep = "[\n  "
        for v in items:
            yield sep + render_json(v).replace("\n", "\n  ")
            sep = ",\n  "
        yield "[]" if sep == "[\n  " else "\n]"
        return
    head = list(islice(items, 1))
    if head and "\n" in (first := render_text(head[0])):
        yield first
        for v in items:
            yield "\n\n" + render_text(v)
    else:
        yield render_text(head + list(items))


# ---------------------------------------------------------------------------
# text parsing
# ---------------------------------------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_MIXED_RE = re.compile(rf"^({_RAT})([+-])(\d+(?:/\d+)?)\*I$")
_IMAG_RE = re.compile(rf"^({_RAT})\*I$")


def _parse_coeff(text: str) -> GaussianRational:
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        m = _MIXED_RE.match(inner)
        if m:
            im = Fraction(m.group(3))
            return GaussianRational(Fraction(m.group(1)),
                                    im if m.group(2) == "+" else -im)
        m = _IMAG_RE.match(inner)
        if m:
            return GaussianRational(0, Fraction(m.group(1)))
        raise ValueError(f"bad coefficient {text!r}")
    m = _IMAG_RE.match(text)
    if m:
        return GaussianRational(0, Fraction(m.group(1)))
    return GaussianRational(Fraction(text), 0)


def _parse_term(text: str) -> RadicalSum:
    if text.startswith("sqrt("):
        return RadicalSum.sqrt_int(int(text[5:-1]))
    if text.startswith("-sqrt("):
        return -RadicalSum.sqrt_int(int(text[6:-1]))
    m = re.match(r"^(.+?)\*sqrt\((\d+)\)$", text)
    if m:
        coeff = _parse_coeff(m.group(1))
        return RadicalSum({int(m.group(2)): coeff})
    return RadicalSum({1: _parse_coeff(text)})


def parse_scalar_text(text: str) -> RadicalSum:
    """Inverse of the canonical scalar rendering."""
    text = text.strip()
    if text == "0":
        return ZERO
    total = ZERO
    for part in text.split(" + "):
        total = total + _parse_term(part)
    return total


_CELL_SPLIT = re.compile(r"\s{2,}")


def parse_matrix_text(text: str) -> ExactMatrix:
    """Inverse of the matrix text rendering (rows on lines, two-space
    separated cells; cells contain at most single spaces)."""
    rows = []
    for line in text.strip().splitlines():
        cells = _CELL_SPLIT.split(line.strip())
        rows.append([parse_scalar_text(c) for c in cells])
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

def _scalar_from_terms(terms) -> RadicalSum:
    acc = {}
    for t in terms:
        acc[int(t["radicand"])] = GaussianRational(
            Fraction(t["re"]), Fraction(t["im"]))
    return RadicalSum(acc)


def from_jsonable(obj):
    """Rebuild a value from its ``to_jsonable`` form."""
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    kind = obj.get("kind")
    if kind == "scalar":
        return _scalar_from_terms(obj["terms"])
    if kind == "matrix":
        return ExactMatrix([[_scalar_from_terms(e) for e in row]
                            for row in obj["entries"]])
    if kind == "polynomial":
        return ExactPolynomial([parse_scalar_text(c)
                                for c in obj["coefficients"]])
    if kind == "verification-report":
        residual = obj.get("residual")
        return VerificationReport(
            check=CheckId(obj["check"]), N=int(obj["N"]),
            parameters=tuple((p["name"], Fraction(p["value"]))
                             for p in obj["params"]),
            passed=bool(obj["passed"]),
            residual=None if residual is None else from_jsonable(residual),
            elapsed_ms=float(obj["elapsed_ms"]))
    if kind == "spectrum-report":
        return SpectrumReport(
            N=int(obj["N"]), model=ModelId(obj["model"]),
            param=float(obj["param"]),
            roots=tuple(complex(re_, im_) for re_, im_ in obj["roots"]),
            max_imag=float(obj["max_imag"]),
            max_pair_gap=float(obj["max_pair_gap"]),
            min_pair_gap=float(obj["min_pair_gap"]))
    if kind == "path-sample":
        return PathSample(
            t=Fraction(obj["t"]), matrix=from_jsonable(obj["matrix"]),
            char_poly=from_jsonable(obj["char_poly"]),
            roots=tuple(complex(re_, im_) for re_, im_ in obj["roots"]))
    if kind == "condition-entry":
        return ConditionEntry(N=int(obj["N"]), family=obj["family"],
                              kappa=float(obj["kappa"]))
    raise ValueError(f"cannot parse kind {kind!r}")


def parse_json(text: str):
    return from_jsonable(json.loads(text))
