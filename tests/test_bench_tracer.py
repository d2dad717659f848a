import importlib

import pytest

from perfbench.tracer import METHODS


@pytest.mark.parametrize("module, cls, method", sorted(METHODS))
def test_traced_method_is_defined_on_its_class(module, cls, method):
    # the tracer patches cls.__dict__[method]; a method that moved or was
    # inherited would break only the traced benchmark
    owner = getattr(importlib.import_module(f"sblinks.{module}"), cls)
    assert method in owner.__dict__
