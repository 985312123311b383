"""Batched-vs-serial equivalence at the experiment layer.

The acceptance contract of replica batching: for every fault preset ×
collision model, R batched replicas produce ``RunResult.to_dict()``
documents **byte-identical** to R per-seed serial runs — and a batched
sweep writes store shards byte-identical to a serial sweep.  Batching
must be invisible everywhere except the wall clock.

The same contract extends to every :class:`ExecutionPolicy` backend:
the default tiers and the heterogeneous mega-batch fusion produce
byte-identical results, ledgers, fault streams, and store shards.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import (
    ExecutionPolicy,
    ExperimentSpec,
    execution_backends,
    run_experiment,
    run_experiment_batch,
    run_experiment_mega,
    run_partition,
    run_specs,
    run_sweep,
    spec_is_batchable,
)
from repro.experiments.runner import (
    DEFAULT_BATCH_REPLICAS,
    DEFAULT_MEGA_BATCH,
    _plan_units,
)
from repro.experiments.spec import COLLISION_MODELS
from repro.radio.faults import named_fault_models

REPLICAS = 8
PRESETS = sorted(named_fault_models())
#: Per-seed execution: the reference every batched path must match.
PER_SEED = ExecutionPolicy(batch_replicas=1)


def _cell_specs(preset, collision_model, seeds=range(REPLICAS), **overrides):
    base = dict(
        topology="star_of_paths",
        n=24,
        algorithm="decay_bfs",
        algorithm_params={"depth_budget": 24},
        engine="fast",
        collision_model=collision_model,
        fault_model=None if preset == "none" else preset,
    )
    base.update(overrides)
    return [ExperimentSpec(seed=s, **base) for s in seeds]


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# The headline matrix: fault preset x collision model, R=8, byte-for-byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("collision_model", COLLISION_MODELS)
@pytest.mark.parametrize("preset", PRESETS)
def test_batched_results_byte_identical(preset, collision_model):
    specs = _cell_specs(preset, collision_model)
    serial = [run_experiment(spec) for spec in specs]
    # One cell's replicas: a one-member mega batch, as sweeps run them.
    batched = run_experiment_mega(specs)
    assert len(batched) == len(serial)
    for ref, got in zip(serial, batched):
        assert _canonical(got) == _canonical(ref)
        # Energy counters specifically (they are inside to_dict too, but
        # a failure here names the diverging metric directly).
        assert got.metrics() == ref.metrics()
        assert got.fault_counts() == ref.fault_counts()
        assert got.status == ref.status


# ---------------------------------------------------------------------------
# Runner-level dispatch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology, n", [("star_of_paths", 24),
                                         ("complete", 48)])
def test_run_specs_batched_equals_opt_out(topology, n):
    specs = _cell_specs("drop10", "no_cd", topology=topology, n=n)
    batched = run_specs(specs, parallel=False)
    serial = run_specs(specs, parallel=False, policy=PER_SEED)
    assert tuple(batched.results) == tuple(serial.results)
    assert [r.spec.seed for r in batched] == list(range(REPLICAS))


def test_run_sweep_batches_the_seed_axis():
    """A grid sweep groups its innermost (seed) axis without reordering."""
    batched = run_sweep(["star_of_paths", "grid"], ["decay_bfs"],
                        sizes=16, seeds=4, engine="fast", parallel=False)
    serial = run_sweep(["star_of_paths", "grid"], ["decay_bfs"],
                       sizes=16, seeds=4, engine="fast", parallel=False,
                       policy=PER_SEED)
    assert tuple(batched.results) == tuple(serial.results)


def test_plan_units_groups_only_adjacent_batchable_replicas():
    cell = _cell_specs("none", "no_cd", seeds=range(4))
    other = _cell_specs("none", "no_cd", seeds=range(2), n=16)
    reference = _cell_specs("none", "no_cd", seeds=range(2), engine="reference")
    stochastic = _cell_specs("none", "no_cd", seeds=range(2),
                             topology="geometric")
    lb_level = _cell_specs("none", "no_cd", seeds=range(2),
                           algorithm="trivial_bfs")
    specs = cell + other + reference + stochastic + lb_level
    units = _plan_units(specs, ExecutionPolicy())
    assert [len(u) for u in units] == [4, 2, 1, 1, 1, 1, 1, 1]
    assert [s for unit in units for s in unit] == specs
    # The policy's replica cap bounds group size; 1 plans per seed.
    assert [len(u) for u in _plan_units(
        cell, ExecutionPolicy(batch_replicas=3))] == [3, 1]
    assert [len(u) for u in _plan_units(
        cell, ExecutionPolicy(batch_replicas=2))] == [2, 2]
    assert [len(u) for u in _plan_units(cell, PER_SEED)] == [1, 1, 1, 1]


def test_spec_is_batchable_conditions():
    spec = _cell_specs("none", "no_cd", seeds=[0])[0]
    assert spec_is_batchable(spec)
    assert not spec_is_batchable(dataclasses.replace(spec, engine="reference"))
    assert not spec_is_batchable(dataclasses.replace(spec, topology="geometric"))
    assert not spec_is_batchable(
        dataclasses.replace(spec, algorithm="trivial_bfs")
    )


def test_run_experiment_batch_rejects_mixed_cells():
    specs = _cell_specs("none", "no_cd", seeds=range(2))
    other = _cell_specs("none", "no_cd", seeds=[5], n=16)
    with pytest.raises(ConfigurationError, match="identical up to seed"):
        run_experiment_batch(specs + other)
    with pytest.raises(ConfigurationError, match="not\\s+batchable"):
        run_experiment_batch(
            _cell_specs("none", "no_cd", seeds=range(2), engine="reference")
        )


def test_run_experiment_batch_edge_arities():
    assert run_experiment_batch([]) == []
    spec = _cell_specs("none", "no_cd", seeds=[7])[0]
    (single,) = run_experiment_batch([spec])
    assert _canonical(single) == _canonical(run_experiment(spec))


def test_run_experiment_batch_delegates_to_one_member_mega():
    specs = _cell_specs("drop10", "receiver_cd", seeds=range(3))
    assert ([_canonical(r) for r in run_experiment_batch(specs)]
            == [_canonical(r) for r in run_experiment_mega(specs)])


# ---------------------------------------------------------------------------
# The ExecutionPolicy: one sweep-wide statement of how specs run
# ---------------------------------------------------------------------------

def test_execution_policy_validation():
    with pytest.raises(ConfigurationError, match="backend"):
        ExecutionPolicy(backend="cuda")
    for bad in (0, -1, True, 2.5, "8"):
        with pytest.raises(ConfigurationError, match="batch_replicas"):
            ExecutionPolicy(batch_replicas=bad)
        with pytest.raises(ConfigurationError, match="mega_batch"):
            ExecutionPolicy(mega_batch=bad)
    with pytest.raises(ConfigurationError, match="unknown"):
        ExecutionPolicy.from_dict({"backend": "megabatch", "gpu": True})
    round_trip = ExecutionPolicy(backend="megabatch", mega_batch=4)
    assert ExecutionPolicy.from_dict(round_trip.to_dict()) == round_trip


def test_spec_carries_no_execution_policy():
    doc = _cell_specs("none", "no_cd", seeds=[0])[0].to_dict()
    with pytest.raises(ConfigurationError, match="unknown spec fields"):
        ExperimentSpec.from_dict({**doc, "execution": {"batch_replicas": 2}})


def _grid_star_specs(seeds):
    """Fault-free ``decay_bfs`` on grid and star n=16, in grid order."""
    return [spec for topology in ("grid", "star")
            for spec in _cell_specs("none", "no_cd", seeds=seeds,
                                    topology=topology, n=16,
                                    algorithm_params=None)]


def _three_runners(specs, store, policy):
    """``run_specs``, ``run_sweep`` and ``run_partition`` under one
    policy, on the same cells (the sweep's grid is ``specs``)."""
    return [
        run_specs(specs, parallel=False, policy=policy),
        run_sweep(["grid", "star"], ["decay_bfs"], sizes=16, seeds=[0, 1],
                  engine="fast", parallel=False, policy=policy),
        run_partition(specs, worker=0, ring=1, parallel=False,
                      store=str(store), policy=policy),
    ]


def test_policy_mapping_accepted_by_every_runner(tmp_path):
    specs = _grid_star_specs(seeds=[0, 1])
    mapped = _three_runners(specs, tmp_path / "mapped",
                            {"backend": "megabatch"})
    typed = _three_runners(specs, tmp_path / "typed",
                           ExecutionPolicy(backend="megabatch"))
    per_seed = run_specs(specs, parallel=False, policy=PER_SEED)
    for got in mapped + typed:
        assert [_canonical(r) for r in got] == [_canonical(r) for r in per_seed]


@pytest.mark.parametrize(
    "bad", ["megabatch", 4, ["backend"], {"backend": "cuda"}, {"gpu": True}],
    ids=["str", "int", "list", "unknown_backend", "unknown_field"])
def test_bad_policy_is_a_one_line_error_in_every_runner(tmp_path, bad):
    specs = _cell_specs("none", "no_cd", seeds=[0])
    calls = [
        lambda: run_specs(specs, parallel=False, policy=bad),
        lambda: run_sweep(["grid"], ["decay_bfs"], sizes=16, seeds=1,
                          parallel=False, policy=bad),
        lambda: run_partition(specs, worker=0, ring=1, parallel=False,
                              store=str(tmp_path / "shard"), policy=bad),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError) as info:
            call()
        assert "\n" not in str(info.value)
    # Refused before the store was touched.
    assert not (tmp_path / "shard").exists()


@pytest.mark.parametrize("backend", [None, "megabatch"])
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "pooled"])
def test_sweep_invariant_sample_reaches_every_run(parallel, backend):
    specs = _grid_star_specs(seeds=range(4))
    sweep = run_specs(specs, parallel=parallel, max_workers=2,
                      policy=ExecutionPolicy(backend=backend,
                                             invariant_sample=2))
    for spec, result in zip(specs, sweep):
        assert result.invariants is not None
        assert result.invariants["checked_slots"] > 0
        assert result.invariants["violations"] == {}
        assert _canonical(result) == _canonical(
            run_experiment(spec, invariant_sample=2))


def test_default_batch_replicas_is_sane():
    assert isinstance(DEFAULT_BATCH_REPLICAS, int)
    assert DEFAULT_BATCH_REPLICAS >= 2


# ---------------------------------------------------------------------------
# Store byte-identity: a batched sweep writes the same shards
# ---------------------------------------------------------------------------

def _shard_bytes(store_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(pathlib.Path(store_dir, "shards").glob("*.jsonl"))
    }


def test_batched_sweep_store_byte_identical(tmp_path):
    specs = _cell_specs("lossy_mixed", "receiver_cd")
    run_specs(specs, parallel=False, store=str(tmp_path / "serial"),
              policy=PER_SEED)
    run_specs(specs, parallel=False, store=str(tmp_path / "batched"))
    assert _shard_bytes(tmp_path / "serial") == _shard_bytes(tmp_path / "batched")


def test_batched_resume_store_byte_identical(tmp_path):
    """Completed cells drop out of the batch group; bytes still match."""
    specs = _cell_specs("drop30", "no_cd")
    run_specs(specs, parallel=False, store=str(tmp_path / "reference"),
              policy=PER_SEED)
    resumed = str(tmp_path / "resumed")
    run_specs(specs[:5], parallel=False, store=resumed)
    sweep = run_specs(specs, parallel=False, store=resumed)
    assert len(sweep) == REPLICAS
    assert [r.spec.seed for r in sweep] == list(range(REPLICAS))
    assert _shard_bytes(tmp_path / "reference") == _shard_bytes(resumed)


# ---------------------------------------------------------------------------
# Backend equivalence: every backend x fault preset x collision model
# ---------------------------------------------------------------------------

def _hetero_specs(preset, collision_model, seeds=3):
    """A heterogeneous mini-grid: three topologies, different sizes."""
    specs = []
    for topology, n in [("grid", 25), ("star", 17), ("cycle", 24)]:
        specs.extend(_cell_specs(preset, collision_model, seeds=range(seeds),
                                 topology=topology, n=n))
    return specs


@pytest.mark.parametrize("collision_model", COLLISION_MODELS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("backend", [None, "megabatch"])
def test_backend_byte_identical_grid(backend, preset, collision_model):
    """The headline backend matrix: byte-for-byte against per-seed serial.

    Covers the default tiers (replica batching) and the mega-batch
    fusion, across every fault preset and collision model, on a
    heterogeneous spec stream.
    """
    specs = _hetero_specs(preset, collision_model, seeds=2)
    serial = run_specs(specs, parallel=False, policy=PER_SEED)
    alt = run_specs(specs, parallel=False,
                    policy=ExecutionPolicy(backend=backend))
    assert len(alt) == len(serial)
    for ref, got in zip(serial, alt):
        assert _canonical(got) == _canonical(ref)
        assert got.fault_counts() == ref.fault_counts()


def test_execution_backends_are_megabatch_only():
    assert execution_backends() == ("megabatch",)


@pytest.mark.parametrize("name", ["numba", "scipy", "numpy"])
def test_retired_kernel_backends_fail_naming_megabatch(name):
    with pytest.raises(ConfigurationError, match="megabatch") as info:
        ExecutionPolicy(backend=name)
    assert "\n" not in str(info.value)


def _python(args, cwd):
    """Run a fresh interpreter on this checkout's ``repro`` package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_retired_backend_is_a_one_line_error(tmp_path):
    proc = _python(["-m", "repro.experiments", "run", "--topologies", "grid",
                    "--algorithms", "decay_bfs", "--serial",
                    "--backend", "scipy"], cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "megabatch" in lines[0] and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("work", [
    "",
    # networkx's own geometric builder imports scipy.spatial when it can.
    "from repro.radio.topology import scenario; "
    "scenario('dense_geometric', 500, seed=0); "
    "scenario('geometric', 500, seed=0); ",
], ids=["import", "geometric_build"])
def test_importing_experiments_leaves_scipy_unloaded(tmp_path, work):
    code = f"import sys, repro.experiments; {work}print('scipy' in sys.modules)"
    proc = _python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Mega batching specifics: planner, dispatcher, stores
# ---------------------------------------------------------------------------

def test_plan_units_mega_merges_adjacent_cells():
    mega = ExecutionPolicy(backend="megabatch")
    specs = _hetero_specs("none", "no_cd", seeds=3)
    # Without the policy: three replica-batched units.
    assert [len(u) for u in _plan_units(specs, ExecutionPolicy())] == [3, 3, 3]
    # With it: one heterogeneous unit spanning all nine lanes.
    assert [len(u) for u in _plan_units(specs, mega)] == [9]
    # The mega_batch cap bounds *total* lanes, at unit granularity.
    capped = ExecutionPolicy(backend="megabatch", mega_batch=6)
    assert [len(u) for u in _plan_units(specs, capped)] == [6, 3]
    # Non-mega-batchable cells break the merged run.
    blocker = _cell_specs("none", "no_cd", seeds=[0],
                          algorithm="trivial_bfs")
    mixed = specs[:3] + blocker + specs[3:]
    assert [len(u) for u in _plan_units(mixed, mega)] == [3, 1, 6]
    # Order is always preserved exactly.
    assert [s for u in _plan_units(mixed, mega) for s in u] == mixed


def test_run_experiment_mega_validates_input():
    assert run_experiment_mega([]) == []
    specs = _hetero_specs("none", "no_cd", seeds=2)
    with pytest.raises(ConfigurationError, match="one algorithm"):
        run_experiment_mega(
            specs + _cell_specs("none", "no_cd", seeds=[0],
                                algorithm="trivial_bfs"))
    with pytest.raises(ConfigurationError, match="not batchable"):
        run_experiment_mega(
            specs[:2]
            + _cell_specs("none", "no_cd", seeds=range(2), n=16,
                          engine="reference"))
    # A single homogeneous group is a one-member mega batch.
    single = run_experiment_mega(specs[:2])
    serial = [run_experiment(s) for s in specs[:2]]
    assert [_canonical(r) for r in single] == [_canonical(r) for r in serial]


def test_mega_sweep_store_byte_identical(tmp_path):
    specs = _hetero_specs("lossy_mixed", "receiver_cd", seeds=2)
    run_specs(specs, parallel=False, store=str(tmp_path / "serial"),
              policy=PER_SEED)
    run_specs(specs, parallel=False, store=str(tmp_path / "mega"),
              policy=ExecutionPolicy(backend="megabatch"))
    assert _shard_bytes(tmp_path / "serial") == _shard_bytes(tmp_path / "mega")


def test_mega_resume_store_byte_identical(tmp_path):
    """Cells completed serially drop out of the mega unit; bytes match."""
    specs = _hetero_specs("drop30", "no_cd", seeds=2)
    run_specs(specs, parallel=False, store=str(tmp_path / "reference"),
              policy=PER_SEED)
    resumed = str(tmp_path / "resumed")
    run_specs(specs[:4], parallel=False, store=resumed, policy=PER_SEED)
    sweep = run_specs(specs, parallel=False, store=resumed,
                      policy=ExecutionPolicy(backend="megabatch"))
    assert len(sweep) == len(specs)
    assert _shard_bytes(tmp_path / "reference") == _shard_bytes(resumed)


def test_default_mega_batch_is_sane():
    assert isinstance(DEFAULT_MEGA_BATCH, int)
    assert DEFAULT_MEGA_BATCH >= DEFAULT_BATCH_REPLICAS


# ---------------------------------------------------------------------------
# CLI surface: one policy from --backend / --batch-replicas /
# --invariant-sample, shared by run, sweep, worker
# ---------------------------------------------------------------------------

def test_cli_backend_flag_uniform_across_subcommands():
    from repro.experiments.__main__ import _build_parser, _policy_from_args

    parser = _build_parser()
    common = ["--topologies", "grid", "--algorithms", "decay_bfs"]
    extra = {
        "run": [],
        "sweep": ["--out", "ignored"],
        "worker": ["--out", "ignored", "--worker-id", "0",
                   "--num-workers", "1"],
    }
    for command, args in extra.items():
        ns = parser.parse_args(
            [command, *common, *args, "--backend", "megabatch",
             "--batch-replicas", "4"])
        assert ns.backend == "megabatch" and ns.batch_replicas == 4
        assert _policy_from_args(ns) == ExecutionPolicy(
            backend="megabatch", batch_replicas=4)
        ns = parser.parse_args(
            [command, *common, *args, "--invariant-sample", "2"])
        assert _policy_from_args(ns) == ExecutionPolicy(invariant_sample=2)
        ns = parser.parse_args([command, *common, *args])
        assert _policy_from_args(ns) == ExecutionPolicy()
    ns = parser.parse_args(["run", *common, "--backend", "cuda"])
    with pytest.raises(ConfigurationError, match="megabatch"):
        _policy_from_args(ns)


def test_cli_run_backend_byte_identical(tmp_path, capsys):
    from repro.experiments.__main__ import main

    common = ["run", "--topologies", "grid", "star", "--algorithms",
              "decay_bfs", "--sizes", "16", "--seeds", "2", "--engine",
              "fast", "--serial"]
    plain, mega = tmp_path / "plain.json", tmp_path / "mega.json"
    assert main([*common, "--batch-replicas", "1", "--json", str(plain)]) == 0
    assert main([*common, "--backend", "megabatch", "--json", str(mega)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == mega.read_bytes()
