"""The benchmark's tracer patches multisym by (module, attribute) name;
every name it lists must still resolve, or `perfbench/run.py --trace 1`
breaks.  The tracer file is imported by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TRACED)


@pytest.mark.parametrize("mod_name,attr", _traced())
def test_traced_name_resolves(mod_name, attr):
    module = importlib.import_module("multisym." + mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the method found in the class's own dict
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_span_basis_methods_are_traced():
    traced = set(_traced())
    for meth in ("__init__", "insert_vector", "vector_of"):
        assert ("spans", f"SpanBasis.{meth}") in traced
