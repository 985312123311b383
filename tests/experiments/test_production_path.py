"""Sweeps take one batched path: the one-member mega batch.

Three replica-only entry points survive as thin delegations to their
mega counterparts: ``ReplicaBatchedNetwork.run_lockstep``,
``run_decay_local_broadcast_batch`` and ``run_experiment_batch``.  No
sweep may reach them.  Each is replaced by a function that raises, and
both a replica-batched sweep and a mega-batched sweep must still write
documents byte-identical to the per-seed serial run.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.experiments import ExecutionPolicy, ExperimentSpec, run_specs
from repro.experiments import runner
from repro.experiments.runner import _plan_units
from repro.primitives import decay
from repro.radio.batch_engine import ReplicaBatchedNetwork


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` raise wherever a ``repro`` module binds it."""
    original = getattr(module, name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was reached on the production path")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, forbidden)


@pytest.fixture
def fused_calls(monkeypatch):
    """Forbid the replica-only delegations; count fused unit runs."""
    def forbidden_lockstep(self, populations, max_slots):
        raise AssertionError("ReplicaBatchedNetwork.run_lockstep was reached")

    monkeypatch.setattr(ReplicaBatchedNetwork, "run_lockstep",
                        forbidden_lockstep)
    _forbid(monkeypatch, decay, "run_decay_local_broadcast_batch")
    _forbid(monkeypatch, runner, "run_experiment_batch")
    calls = []
    fused = runner.run_experiment_mega

    def counting(specs):
        calls.append(len(specs))
        return fused(specs)

    monkeypatch.setattr(runner, "run_experiment_mega", counting)
    return calls


def _specs(cells, seeds, **common):
    return [
        ExperimentSpec(topology=topology, n=n, algorithm="decay_bfs",
                       algorithm_params={"depth_budget": n}, engine="fast",
                       seed=seed, **common)
        for topology, n in cells
        for seed in range(seeds)
    ]


def _documents(sweep):
    return [json.dumps(r.to_dict(), sort_keys=True, allow_nan=False)
            for r in sweep]


def test_replica_sweep_with_faults_and_sinr_takes_the_mega_path(fused_calls):
    specs = _specs([("grid", 16), ("star_of_paths", 18)], seeds=4,
                   collision_model="sinr", fault_model="drop10")
    assert [len(u) for u in _plan_units(specs, None)] == [4, 4]
    batched = run_specs(specs, parallel=False)
    assert fused_calls == [4, 4]
    serial = run_specs(specs, parallel=False, batch_replicas=1)
    assert fused_calls == [4, 4]
    assert _documents(batched) == _documents(serial)


def test_megabatch_sweep_takes_the_mega_path(fused_calls):
    specs = _specs([("grid", 25), ("star", 17), ("cycle", 24)], seeds=2,
                   collision_model="receiver_cd", fault_model="lossy_mixed")
    fused = run_specs(specs, parallel=False,
                      policy=ExecutionPolicy(backend="megabatch"))
    assert fused_calls == [6]
    serial = run_specs(specs, parallel=False, batch_replicas=1)
    assert _documents(fused) == _documents(serial)
