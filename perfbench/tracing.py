"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces public functions of ``epgate`` modules (in every
``epgate`` module namespace that holds them) and a few methods of
``ExactMatrix`` and ``RadicalSum`` with wrappers.  A span wrapper records
(name, start, end, parent, op); a counting wrapper only bumps a counter.
Spans stay in memory and are written out once, by ``dump``.

``spectra._FAMILIES`` holds the transition constructors it captured at
import, so the module-level wrappers never see those calls; the work behind
them still lands in the class-level ``ExactMatrix`` spans (``@``,
``inverse_*``).  Cache hit ratios are read from ``cache_info()`` of the
original ``lru_cache`` objects, which the wrappers call through to.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, functions) wrapped by span recorders, with the span name each
# gets; models' lru_cache constructors are found at install time
_FUNCTION_SPANS = (
    ("epgate.serialize", ("emit",), "serialize.emit"),
    ("epgate.scenarios", ("sample_path",), "scenarios.sample_path"),
    ("epgate.scenarios", ("hamiltonian_at",), "scenarios.hamiltonian_at"),
    ("epgate.models", ("bh_in_jordan_basis", "ao_in_jordan_basis",
                       "bh_in_ao_frame", "ao_in_bh_frame"), "models.family"),
    ("epgate.models", ("bh_hamiltonian", "ao_hamiltonian"),
     "models.hamiltonian"),
    ("epgate.matrices", ("similarity",), "matrices.similarity"),
    ("epgate.spectra", ("char_poly_tridiagonal",),
     "spectra.char_poly_tridiagonal"),
    ("epgate.spectra", ("condition_report",), "spectra.condition_report"),
    ("epgate.spectra", ("reality_scan",), "spectra.reality_scan"),
)
_CHECKS = ("check_ep_schrodinger", "check_jordanization",
           "check_intertwiner_factorization", "check_intertwine",
           "check_scenario_matching", "check_charpoly_similarity",
           "check_ep_degeneracy")
_METHOD_SPANS = (
    ("__matmul__", "matrices.matmul"),
    ("char_poly", "matrices.char_poly"),
    ("inverse_rational", "matrices.inverse"),
    ("inverse_upper_triangular", "matrices.inverse"),
)
_CHECK_PREFIX = "verify.check."

CHECK_IDS = ("ep-schrodinger-bh", "ep-schrodinger-ao", "jordanization-bh",
             "jordanization-ao", "intertwiner-factorization", "intertwine",
             "scenario-matching", "charpoly-similarity", "ep-total-degeneracy")

# spans whose per-op call count is reported beside their self time
_CALLS = ("scenarios.hamiltonian_at", "models.cached_ctor", "models.family",
          "matrices.matmul", "matrices.similarity", "matrices.char_poly",
          "matrices.inverse", "spectra.find_roots")

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.main_s", "s"),
     ("serialize.emit_s", "s"), ("serialize.out_bytes", "bytes")]
    + [(f"verify.check_s.{c}", "s") for c in CHECK_IDS]
    + [("verify.reports", "count"), ("verify.reports_failed", "count"),
       ("scenarios.hamiltonian_at_s", "s"),
       ("scenarios.hamiltonian_at_calls", "count"),
       ("scenarios.sample_path_s", "s"),
       ("models.cached_ctor_s", "s"), ("models.cached_ctor_calls", "count"),
       ("models.cache_hit_ratio", "ratio"),
       ("models.family_s", "s"), ("models.family_calls", "count"),
       ("models.hamiltonian_s", "s"),
       ("matrices.matmul_s", "s"), ("matrices.matmul_calls", "count"),
       ("matrices.similarity_s", "s"),
       ("matrices.similarity_calls", "count"),
       ("matrices.char_poly_s", "s"), ("matrices.char_poly_calls", "count"),
       ("matrices.inverse_s", "s"), ("matrices.inverse_calls", "count"),
       ("radicals.mul_calls", "count"), ("radicals.add_calls", "count"),
       ("radicals.squarefree_hit_ratio", "ratio"),
       ("spectra.char_poly_tridiagonal_s", "s"),
       ("spectra.find_roots_s", "s"), ("spectra.find_roots_calls", "count"),
       ("spectra.convergence_errors", "count"),
       ("spectra.condition_report_s", "s"),
       ("spectra.reality_scan_s", "s"),
       ("trace.op_p50_s", "s"), ("trace.untraced_op_p50_s", "s"),
       ("trace.overhead_s", "s"), ("trace.self_sum_s", "s")])

# The per-layer metrics that every gated workload exercises: the JSON result
# of a traced run carries these, and BENCHMARK.json lists them.  The others
# are printed only: a layer that a workload never enters reads 0 on every
# run of it, and the ``trace.*`` values are whole-op times or a signed
# difference, not attributed to a layer.
RESULT_LAYERS = ("models.cached_ctor_s", "models.cached_ctor_calls",
                 "models.cache_hit_ratio", "matrices.matmul_s",
                 "matrices.matmul_calls", "radicals.mul_calls",
                 "radicals.add_calls", "radicals.squarefree_hit_ratio")


def _time_metric(span_name: str) -> str:
    if span_name.startswith(_CHECK_PREFIX):
        return "verify.check_s." + span_name[len(_CHECK_PREFIX):]
    return span_name + "_s"


def _cache_totals(functions) -> tuple[int, int]:
    hits = misses = 0
    for fn in functions:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def _ratio(hits: int, misses: int) -> float:
    # no lookups at all reads as 0
    return hits / (hits + misses) if hits + misses else 0.0


class Tracer:
    """Records spans and counters while an op is open (``begin_op`` ..
    ``end_op``); outside an op the wrappers only call through.  ``install``
    and ``uninstall`` may be repeated, keeping the recorded spans."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.op_counts: dict[int, dict[str, float]] = {}
        self.op = None
        self._stack: list[int] = []
        self._counts: dict[str, int] = {}
        self._mul = [0]
        self._add = [0]
        self._undo: list = []
        self._model_caches: list = []
        self._squarefree = None
        self._cache_start = None

    # -- recording -----------------------------------------------------------

    def bump(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, start, end, parent, self.op]

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._counts = {}
        self._mul[0] = self._add[0] = 0
        self._cache_start = (_cache_totals(self._model_caches),
                             _cache_totals([self._squarefree]))

    def end_op(self) -> None:
        (mh0, mm0), (sh0, sm0) = self._cache_start
        mh, mm = _cache_totals(self._model_caches)
        sh, sm = _cache_totals([self._squarefree])
        counts = dict(self._counts)
        counts["radicals.mul_calls"] = self._mul[0]
        counts["radicals.add_calls"] = self._add[0]
        counts["models.cache_hit_ratio"] = _ratio(mh - mh0, mm - mm0)
        counts["radicals.squarefree_hit_ratio"] = _ratio(sh - sh0, sm - sm0)
        self.op_counts[self.op] = counts
        self.op = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, label=None, errors=(), error_key=None):
        tracer, spans, stack = self, self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.bump(error_key)
                raise
            finally:
                end = perf()
                stack.pop()
                spans[idx] = [name, start, end, parent, op]
            if label is not None:
                spans[idx][0] = label(result)
            return result

        return traced

    @staticmethod
    def _count_wrapper(fn, cell):
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _check_label(self, report) -> str:
        self.bump("verify.reports")
        if not report.passed:
            self.bump("verify.reports_failed")
        return _CHECK_PREFIX + report.check.value

    def _replace_function(self, original, wrapper) -> None:
        # every epgate namespace holding the function, so callers that
        # imported it by name are covered too
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "epgate"
                                   or mod_name.startswith("epgate.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import epgate.cli  # noqa: F401  (loads every module to patch)
        from epgate import models, radicals, spectra
        from epgate.matrices import ExactMatrix
        from epgate.radicals import RadicalSum

        modules = sys.modules
        for mod_name, names, span_name in _FUNCTION_SPANS:
            for attr in names:
                fn = getattr(modules[mod_name], attr)
                self._replace_function(fn, self._span_wrapper(fn, span_name))
        find_roots = spectra.find_roots
        self._replace_function(find_roots, self._span_wrapper(
            find_roots, "spectra.find_roots", errors=spectra.ConvergenceError,
            error_key="spectra.convergence_errors"))
        verify = modules["epgate.verify"]
        for attr in _CHECKS:
            fn = getattr(verify, attr)
            self._replace_function(fn, self._span_wrapper(
                fn, "verify.check", label=self._check_label))
        self._model_caches = [
            fn for fn in vars(models).values()
            if callable(fn) and hasattr(fn, "cache_info")
            and getattr(fn, "__module__", None) == "epgate.models"]
        for fn in self._model_caches:
            self._replace_function(fn, self._span_wrapper(
                fn, "models.cached_ctor"))
        self._squarefree = radicals.squarefree_decompose

        for attr, span_name in _METHOD_SPANS:
            original = vars(ExactMatrix)[attr]
            setattr(ExactMatrix, attr, self._span_wrapper(original, span_name))
            self._undo.append((ExactMatrix, attr, original))
        for attrs, cell in ((("__mul__", "__rmul__"), self._mul),
                            (("__add__", "__radd__"), self._add)):
            for attr in attrs:
                original = vars(RadicalSum)[attr]
                setattr(RadicalSum, attr, self._count_wrapper(original, cell))
                self._undo.append((RadicalSum, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "op_counts": {str(k): v
                                     for k, v in self.op_counts.items()}},
                      fh)


def load_dump(path) -> tuple[list, dict[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], {int(k): v for k, v in data["op_counts"].items()}


def layer_values(spans: list, op_counts: dict[int, dict]) -> dict[int, dict]:
    """Per-op per-layer values: self time per layer, calls per layer, and
    the counters recorded at op end."""
    self_time = [s[2] - s[1] for s in spans]
    for name, start, end, parent, op in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out: dict[int, dict] = {op: dict(c) for op, c in op_counts.items()}
    for (name, _, _, _, op), own in zip(spans, self_time):
        values = out.setdefault(op, {})
        key = _time_metric(name)
        values[key] = values.get(key, 0.0) + own
        if name in _CALLS:
            key = name + "_calls"
            values[key] = values.get(key, 0) + 1
    return out


def summarize(per_op: list[dict]) -> dict[str, float]:
    """Median over traced ops of every per-layer metric (0 when a layer
    never ran), and of each op's summed self times."""
    out = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        out[name] = statistics.median(v.get(name, 0) for v in per_op)
    out["trace.self_sum_s"] = statistics.median(
        sum(value for name, value in v.items() if name.endswith("_s"))
        for v in per_op)
    return out
