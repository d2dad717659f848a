import importlib
import json
import types
from pathlib import Path

import pytest

from perfbench.tracer import COMPOSE_COUNTERS, METHODS, SKIPPED_MODULES


@pytest.mark.parametrize("module, cls, method", sorted(METHODS))
def test_traced_method_is_defined_on_its_class(module, cls, method):
    # the tracer patches cls.__dict__[method]; a method that moved or was
    # inherited would break only the traced benchmark
    owner = getattr(importlib.import_module(f"sblinks.{module}"), cls)
    assert method in owner.__dict__


def _is_traced_function(layer: str) -> bool:
    """Whether the tracer wraps a public function under this layer name."""
    short, _, attr = layer.partition(".")
    module = f"sblinks.{short}"
    if module in SKIPPED_MODULES or attr.startswith("_"):
        return False
    value = getattr(importlib.import_module(module), attr, None)
    return isinstance(value, types.FunctionType) and value.__module__ == module


def test_every_per_layer_metric_names_a_traced_layer():
    # a renamed function would otherwise read 0 in its benchmark rows with
    # no test failing
    bench = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )
    method_layers = {layer for layer, _ in METHODS.values()}
    unresolved = []
    for row in bench["per_layer"]:
        name = row["name"]
        layer, _, kind = name.rpartition(".")
        if kind not in ("calls", "self_s"):
            layer = name
        if not (
            layer in method_layers
            or layer in COMPOSE_COUNTERS
            or layer.startswith("trace.")
            or _is_traced_function(layer)
        ):
            unresolved.append(name)
    assert unresolved == []
