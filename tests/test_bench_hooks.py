"""The names the benchmark's tracer (perfbench/tracer.py) wraps still exist.

A traced benchmark run replaces these functions, methods and properties by
name.  A missing one breaks the traced run, and a renamed one makes its
per-layer metrics read zero, so they are pinned here.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from kpx.kgraph import KGraph, Path
from kpx.rings import Ring

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", tracer.KGRAPH_METHODS)
def test_kgraph_method_exists(name):
    assert name in KGraph.__dict__


@pytest.mark.parametrize(
    "qualname",
    [f"{layer}.{n}" for layer, names in tracer.CALLS_AND_SELF.items() for n in names]
    + tracer.SELF_ONLY,
)
def test_public_module_function_exists(qualname):
    layer, name = qualname.split(".")
    if layer == "kgraph":  # the tracer wraps these as KGraph methods
        assert name in tracer.KGRAPH_METHODS and name in KGraph.__dict__
        return
    mod = importlib.import_module(f"kpx.{layer}")
    fn = vars(mod).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    assert not name.startswith("_")


@pytest.mark.parametrize("owner, name", [(Path, "degree"), (Ring, "zero"), (Ring, "one")])
def test_counted_property_exists(owner, name):
    assert isinstance(owner.__dict__.get(name), property)
