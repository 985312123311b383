"""Property-based tests for heterogeneous mega-batch packing.

The property that makes ``backend="megabatch"`` safe to turn on
anywhere: no matter how cells are ordered and how the lane cap slices
them into mega units, every cell's result document — and
every store shard written from it — is byte-identical to per-seed
serial execution.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from repro.experiments import (
    ExecutionPolicy,
    ExperimentSpec,
    run_experiment,
    run_specs,
    spec_hash,
)

_POOL = [
    ExperimentSpec(topology=topology, n=n, algorithm="decay_bfs",
                   algorithm_params={"depth_budget": n}, engine="fast",
                   seed=seed, fault_model="drop10")
    for topology, n in [("grid", 25), ("star", 17), ("cycle", 24)]
    for seed in range(3)
]

_SERIAL_CACHE = {}


def _serial_bytes(spec):
    """The per-seed serial result document, cached across examples."""
    key = spec_hash(spec)
    if key not in _SERIAL_CACHE:
        _SERIAL_CACHE[key] = json.dumps(
            run_experiment(spec).to_dict(), sort_keys=True, allow_nan=False
        )
    return _SERIAL_CACHE[key]


@given(
    order=st.permutations(range(len(_POOL))),
    cap=st.integers(min_value=1, max_value=2 * len(_POOL)),
)
@settings(max_examples=10, deadline=None)
def test_mega_packing_order_never_changes_result_bytes(order, cap):
    """Any spec order x any lane cap: results match serial, in order."""
    specs = [_POOL[i] for i in order]
    policy = ExecutionPolicy(backend="megabatch", mega_batch=cap)
    sweep = run_specs(specs, parallel=False, policy=policy)
    assert [r.spec for r in sweep.results] == specs
    for spec, result in zip(specs, sweep.results):
        got = json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)
        assert got == _serial_bytes(spec)


def _shard_bytes(store_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(pathlib.Path(store_dir, "shards").glob("*.jsonl"))
    }


@given(
    order=st.permutations(range(len(_POOL))),
    cap=st.integers(min_value=1, max_value=len(_POOL)),
)
@settings(max_examples=4, deadline=None)
def test_mega_packing_never_changes_store_shard_bytes(order, cap):
    """For one spec order, mega vs serial stores are shard-identical."""
    specs = [_POOL[i] for i in order]
    policy = ExecutionPolicy(backend="megabatch", mega_batch=cap)
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = str(pathlib.Path(tmp, "serial"))
        mega_dir = str(pathlib.Path(tmp, "mega"))
        run_specs(specs, parallel=False, store=serial_dir,
                  policy=ExecutionPolicy(batch_replicas=1))
        run_specs(specs, parallel=False, store=mega_dir, policy=policy)
        assert _shard_bytes(serial_dir) == _shard_bytes(mega_dir)
