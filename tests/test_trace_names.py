"""The names that bench/tracer.py rebinds must exist in the program.

The tracer wraps layer functions, methods and Pipeline stages by name; a
missing name makes a traced benchmark run fail without a verdict.  This
test fails first, naming what is missing.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
sys.path.insert(0, BENCH)
from tracer import (  # noqa: E402
    CACHED_STAGES, FUNCTIONS, METHODS, PACKAGE, SUITES)
sys.path.remove(BENCH)


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


@pytest.mark.parametrize("mod, fname", [(m, f) for m, f, _ in FUNCTIONS])
def test_traced_function_resolves(mod, fname):
    assert callable(getattr(_module(mod), fname, None)), f"{mod}.{fname}"


@pytest.mark.parametrize("mod, cls_name, meth", METHODS)
def test_traced_method_resolves(mod, cls_name, meth):
    cls = getattr(_module(mod), cls_name)
    assert callable(vars(cls).get(meth)), f"{mod}.{cls_name}.{meth}"


@pytest.mark.parametrize("stage", CACHED_STAGES + SUITES)
def test_traced_stage_resolves(stage):
    from nefsphere.pipeline import Pipeline
    assert callable(vars(Pipeline).get(stage)), stage


def test_only_known_cached_stages_are_untraced():
    # A new @_cached stage that CACHED_STAGES does not list would hide its
    # time in its caller's self time; it is named here.
    from nefsphere.pipeline import Pipeline
    cached = {name for name, fn in vars(Pipeline).items()
              if getattr(fn, "__qualname__", "") == "_cached.<locals>.wrapper"}
    assert cached - set(CACHED_STAGES) == {"double_dual", "tropical_cells"}
