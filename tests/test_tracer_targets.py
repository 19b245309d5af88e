"""The benchmark's tracer wraps blockinv functions by name; each must exist.

``perfbench/tracing.py`` is loaded by path and only read: nothing is
installed, so no blockinv function is replaced.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(modname, attr, id=f"{modname}.{attr}")
            for modname, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("modname, attr", _targets())
def test_traced_name_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
