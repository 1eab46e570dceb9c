"""The benchmark names library functions and errors by string; deleting one
would break its traced runs, so every name it relies on is pinned here."""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [
    (module, name)
    for module, names in load_tracing().TRACED.items()
    for name in names
]


@pytest.mark.parametrize("module, name", TRACED, ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"toricover.{module}"), name))


def test_nef_lift_error_still_importable():
    from toricover import chow

    assert issubclass(chow.NefLiftFailedError, Exception)
