"""The perfbench span tracer's entry points still exist in the package,
and a traced sweep attributes its time.

``perfbench/tracer.py`` wraps every name in its ``TARGETS`` table when a
benchmark runs with ``--trace 1``; a renamed or deleted entry point
crashes every traced run, and nothing else in the suite imports the
tracer.  The resolve test loads the tracer by file path and resolves
each target exactly as ``install()`` does, without calling
``install()`` (which rewires the package for the whole test process).
The smoke test calls ``install()`` in a fresh interpreter, runs a tiny
sweep through every traced layer and checks the spans with
``layer_times``, as a traced benchmark pass does.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
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


#: Run in a fresh interpreter: install the tracer (with every info
#: callback guarded so that a raise is recorded), trace one sweep, and
#: print what the spans say as JSON.
SMOKE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import tracer
errors = []

def guarded(info):
    def record(args, kwargs, out):
        try:
            return info(args, kwargs, out)
        except Exception as exc:
            errors.append(repr(exc))
            raise
    return record

tracer.TARGETS = tuple((kind, module, path, info and guarded(info))
                       for kind, module, path, info in tracer.TARGETS)
import repro.experiments as api
from repro.experiments.runner import _plan_units

def decay(**fields):
    return api.ExperimentSpec(topology="grid", n=16, algorithm="decay_bfs",
                              engine="fast", **fields)

specs = [
    decay(seed=1),
    decay(collision_model="sinr", sinr="default", seed=2),
    decay(fault_model="drop10", seed=3),
    api.ExperimentSpec(topology="grid", n=16, algorithm="recursive_bfs", seed=4),
]
spans = tracer.install()
spans.begin()
start = time.perf_counter()
sweep = api.run_specs(specs, parallel=False)
wall = time.perf_counter() - start
recorded = spans.end()
_, counters, uncovered, min_self = tracer.layer_times(recorded, wall)
print(json.dumps({
    "first_unit": len(_plan_units(specs, api.ExecutionPolicy())[0]),
    "statuses": [result.status for result in sweep.results],
    "kinds": sorted({span[0] for span in recorded}),
    "errors": errors,
    "min_self": min_self,
    "uncovered": uncovered / wall,
    "slots": counters["slot.info"],
}))
"""


def test_traced_sweep_attributes_every_layer():
    """A binary and a SINR ``decay_bfs`` cell packed into one unit, a
    ``drop10`` cell and a ``recursive_bfs`` cell, traced: every layer
    they run records spans, no info callback raises, and no span's
    children outlast it."""
    root = TRACER.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(TRACER.parent)], cwd=root, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["first_unit"] >= 2
    assert out["statuses"] == ["ok"] * 4
    assert set(out["kinds"]) >= {
        "topology", "compile", "slot", "product", "decay", "fault_plan",
        "lb_broadcast",
    }
    assert out["errors"] == []
    assert out["min_self"] >= -1e-6
    assert 0 <= out["uncovered"] < 0.5
    assert out["slots"] > 0
