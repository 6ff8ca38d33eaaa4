"""The names perfbench/tracer.py wraps still exist in frenetlift.

The tracer patches every name it lists when a traced benchmark run starts;
a name that is gone crashes that run.  These tests read the tracer's tables
(the module is loaded by path and not changed) and fail first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frenetlift.jets import Jet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, cls_name, attr", sorted(tracer.METHODS))
def test_traced_method_exists(layer, cls_name, attr):
    cls = getattr(importlib.import_module(f"frenetlift.{layer}"), cls_name)
    assert inspect.isfunction(getattr(cls, attr))


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counted_attributes_are_jets_own(name):
    for attr in tracer.COUNTERS[name]:
        assert attr in vars(Jet), f"{name}: Jet defines no {attr}"


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"frenetlift.{layer}")
    assert isinstance(module.__all__, list)
    for name in module.__all__:
        assert hasattr(module, name), f"frenetlift.{layer}.__all__ names missing {name!r}"
