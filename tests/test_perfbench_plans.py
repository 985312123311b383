"""The planner's partition of each perfbench workload is pinned.

The benchmark's per-layer metrics ``experiments.units`` and
``experiments.lanes_per_unit`` count the units ``_plan_units`` forms, and
each workload was tuned on its partition: ``seed_sweep`` keeps one unit
per cell (fusing its n=128 cells cost peak memory and pool
parallelism), ``mega_grid`` packs its tiny cells 64 lanes at a time.
This test loads ``perfbench/workloads.py`` by file path, as
``tests/test_perfbench_tracer.py`` loads the tracer, and checks each
workload's in-process partition (the benchmark runs ``parallel=False``)
under its own policy and under the default one.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.experiments as api
from repro.experiments import ExecutionPolicy
from repro.experiments.runner import _coerce_policy, _plan_units

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


workloads = _load_workloads()

PARTITIONS = {
    "field_cell": [1],
    "seed_sweep": [8, 8, 8, 8],
    "mega_grid": [64, 64, 64, 16],
    "lb_recursive": [1] * 36,
}


def test_every_workload_is_pinned():
    assert set(PARTITIONS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_workload_partition(name):
    specs, own = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, api)
    for policy in (own, None):
        units = _plan_units(specs, _coerce_policy(policy))
        assert [len(u) for u in units] == PARTITIONS[name]
        assert [s for u in units for s in u] == specs
    per_seed = _plan_units(specs, ExecutionPolicy(batch_replicas=1))
    assert [len(u) for u in per_seed] == [1] * len(specs)
