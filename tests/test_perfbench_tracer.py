"""The perfbench span tracer's entry points still exist in the package.

``perfbench/tracer.py`` wraps every name in its ``TARGETS`` table when a
benchmark runs with ``--trace 1``; a renamed or deleted entry point
crashes every traced run, and nothing else in the suite imports the
tracer.  This test loads the tracer by file path and resolves each
target exactly as ``install()`` does, without calling ``install()``
(which rewires the package for the whole test process).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "kind, module_name, path",
    [(kind, module_name, path) for kind, module_name, path, _ in tracer.TARGETS],
    ids=[f"{module_name}:{path}" for _, module_name, path, _ in tracer.TARGETS],
)
def test_traced_entry_point_resolves(kind, module_name, path):
    owner, attr = tracer._resolve(module_name, path)
    if isinstance(owner, type):
        # install() reads the class's own __dict__: an inherited method
        # would be wrapped on the wrong class.
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
    else:
        assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} is gone"
    assert kind in tracer.SELF_TIME_METRICS
