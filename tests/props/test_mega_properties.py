"""Property-based tests for heterogeneous lane-batched units.

The property that lets the planner fuse cells by itself: no matter how
cells are ordered and how the spec stream is cut into units, every
cell's result document — and every store shard written from it — is
byte-identical to the serial device engine
(:func:`serial_oracle.serial_result`).
"""

from __future__ import annotations

import pathlib
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentSpec, run_specs, spec_hash
from repro.experiments import runner
from serial_oracle import canonical, serial_result, serial_store

_POOL = [
    ExperimentSpec(topology=topology, n=n, algorithm="decay_bfs",
                   algorithm_params={"depth_budget": n}, engine="fast",
                   seed=seed, fault_model="drop10")
    for topology, n in [("grid", 25), ("star", 17), ("cycle", 24)]
    for seed in range(3)
]

_SERIAL_CACHE = {}


def _serial_bytes(spec):
    """The serial oracle's result document, cached across examples."""
    key = spec_hash(spec)
    if key not in _SERIAL_CACHE:
        _SERIAL_CACHE[key] = canonical(serial_result(spec))
    return _SERIAL_CACHE[key]


def _units(order, cuts):
    """The permuted pool cut into contiguous units at ``cuts``."""
    specs = [_POOL[i] for i in order]
    bounds = [0, *sorted(cuts), len(specs)]
    return specs, [tuple(specs[a:b]) for a, b in zip(bounds, bounds[1:])]


_CUTS = st.sets(st.integers(min_value=1, max_value=len(_POOL) - 1))


@given(order=st.permutations(range(len(_POOL))), cuts=_CUTS)
@settings(max_examples=10, deadline=None)
def test_any_partition_never_changes_result_bytes(order, cuts):
    """Any spec order x any contiguous partition: results match serial."""
    specs, units = _units(order, cuts)
    results = [r for unit in units for r in runner._run_unit(unit)]
    assert [r.spec for r in results] == specs
    for spec, result in zip(specs, results):
        assert canonical(result) == _serial_bytes(spec)


def _shard_bytes(store_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(pathlib.Path(store_dir, "shards").glob("*.jsonl"))
    }


@given(order=st.permutations(range(len(_POOL))), cuts=_CUTS)
@settings(max_examples=4, deadline=None)
def test_any_partition_never_changes_store_shard_bytes(order, cuts):
    """For one spec order, a partitioned sweep's store equals serial."""
    specs, units = _units(order, cuts)
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = str(pathlib.Path(tmp, "serial"))
        parts_dir = str(pathlib.Path(tmp, "parts"))
        serial_store(specs, serial_dir)
        with mock.patch.object(runner, "_plan_units",
                               lambda pending, policy, share: units):
            run_specs(specs, parallel=False, store=parts_dir)
        assert _shard_bytes(serial_dir) == _shard_bytes(parts_dir)
