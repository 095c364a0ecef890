"""The names the benchmark's tracer wraps still exist in ``epgate``.

``perfbench/tracing.py`` looks up functions of ``epgate`` modules and
methods of ``ExactMatrix`` and ``RadicalSum`` by name, so deleting or
renaming one of them breaks the traced benchmark.  Installing the tracer
here makes such a break fail the unit tests too; uninstalling it must put
every original back.  The tracer module is loaded from its file, read-only.
"""

import importlib.util
import sys
from pathlib import Path

import epgate.cli  # noqa: F401  (loads every module the tracer patches)
from epgate.matrices import ExactMatrix
from epgate.radicals import RadicalSum

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer patches, by name: the two classes and
    each loaded ``epgate`` module."""
    spaces = {"ExactMatrix": vars(ExactMatrix), "RadicalSum": vars(RadicalSum)}
    spaces.update((name, vars(mod)) for name, mod in sys.modules.items()
                  if name == "epgate" or name.startswith("epgate."))
    return spaces


def test_tracer_installs_and_restores_every_traced_name():
    tracing = _load_tracing()
    before = {name: dict(ns) for name, ns in _namespaces().items()}
    wrapped = [(mod, attr) for mod, attrs, _ in tracing._FUNCTION_SPANS
               for attr in attrs]
    wrapped += [("ExactMatrix", attr) for attr, _ in tracing._METHOD_SPANS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        live = _namespaces()
        assert [(ns, attr) for ns, attr in wrapped
                if live[ns][attr] is before[ns][attr]] == []
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, ns in after.items():
        old = before[name]
        assert [k for k in ns.keys() | old.keys()
                if ns.get(k) is not old.get(k)] == [], name
