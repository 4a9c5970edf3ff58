"""The perf harness's layer boundaries name methods that exist.

``benchmarks/perf/layers.py`` wraps each ``BOUNDARIES`` entry by name
for its traced pass (``run.py --trace 1``).  A method deleted or renamed
in ``src/`` would only fail that pass; this test fails first.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

_LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "perf", "layers.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("perf_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [pytest.param(module, cls, method, id=f"{cls}.{method}")
            for _group, module, cls, methods in layers.BOUNDARIES
            for method in methods]


@pytest.mark.parametrize("module,cls,method", _boundaries())
def test_every_boundary_is_a_function_of_its_class(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert inspect.isfunction(owner.__dict__.get(method)), \
        f"{module}.{cls} defines no function {method!r}"
