"""Batched-vs-serial equivalence at the experiment layer.

The acceptance contract of replica batching: for every fault preset ×
collision model, R batched replicas produce ``RunResult.to_dict()``
documents **byte-identical** to R per-seed serial runs — and a batched
sweep writes store shards byte-identical to a serial sweep.  Batching
must be invisible everywhere except the wall clock.

The same contract extends to the planner's heterogeneous units: small
cells of different topologies packed into one fused run produce
byte-identical results, ledgers, fault streams, and store shards.
"""

from __future__ import annotations

import dataclasses
import itertools
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
    UNIT_MAX_DEVICES,
    _group_signature,
    _plan_units,
    _pool_share,
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


def test_plan_units_fuses_only_adjacent_batchable_cells():
    cell = _cell_specs("none", "no_cd", seeds=range(4))
    other = _cell_specs("none", "no_cd", seeds=range(2), n=16)
    reference = _cell_specs("none", "no_cd", seeds=range(2), engine="reference")
    stochastic = _cell_specs("none", "no_cd", seeds=range(2),
                             topology="geometric")
    lb_level = _cell_specs("none", "no_cd", seeds=range(2),
                           algorithm="trivial_bfs")
    specs = cell + other + reference + stochastic + lb_level
    units = _plan_units(specs, ExecutionPolicy())
    assert [len(u) for u in units] == [6, 1, 1, 1, 1, 1, 1]
    assert [s for unit in units for s in unit] == specs
    # batch_replicas caps the lanes of a unit; 1 plans per seed, and
    # the inert backend changes nothing.
    assert [len(u) for u in _plan_units(
        cell, ExecutionPolicy(batch_replicas=3))] == [3, 1]
    assert [len(u) for u in _plan_units(
        cell, ExecutionPolicy(batch_replicas=2))] == [2, 2]
    assert all(len(u) == 1 for u in _plan_units(specs, PER_SEED))
    assert _plan_units(specs, ExecutionPolicy(backend="megabatch")) == units


def _tiny_cells(cells, seeds, n=8):
    return [spec for i in range(cells)
            for spec in _cell_specs("none", "no_cd", seeds=range(seeds),
                                    topology="path", n=n + i)]


def test_plan_units_caps_lanes_and_devices():
    # A whole cell joins the open unit while it stays within
    # batch_replicas lanes ...
    specs = _tiny_cells(3, seeds=DEFAULT_BATCH_REPLICAS // 2 - 2)
    assert [len(u) for u in _plan_units(specs, ExecutionPolicy())] == [
        2 * (DEFAULT_BATCH_REPLICAS // 2 - 2), DEFAULT_BATCH_REPLICAS // 2 - 2]
    # ... and UNIT_MAX_DEVICES devices (the sum of spec.n).
    n = UNIT_MAX_DEVICES // 4 + 1
    big = _tiny_cells(3, seeds=2, n=n)
    assert [len(u) for u in _plan_units(big, ExecutionPolicy())] == [2, 2, 2]
    # One cell's seeds fill units of batch_replicas lanes whatever their
    # devices; the tail stays open for the next small cell.
    many = _tiny_cells(1, seeds=20, n=UNIT_MAX_DEVICES) + _tiny_cells(1, 2)
    assert [len(u) for u in _plan_units(
        many, ExecutionPolicy(batch_replicas=8))] == [8, 8, 4, 2]
    tail = _tiny_cells(1, seeds=10) + _tiny_cells(1, 2, n=9)
    assert [len(u) for u in _plan_units(
        tail, ExecutionPolicy(batch_replicas=8))] == [8, 4]
    # A 64-seed cell under batch_replicas=8 is eight units.
    wide = _tiny_cells(1, seeds=64, n=16)
    assert [len(u) for u in _plan_units(
        wide, ExecutionPolicy(batch_replicas=8))] == [8] * 8


def test_plan_units_shares_work_over_a_pool():
    specs = _tiny_cells(6, seeds=3)
    assert [len(u) for u in _plan_units(specs, ExecutionPolicy())] == [18]
    # share caps every unit so each pool worker gets about one.
    assert [len(u) for u in _plan_units(
        specs, ExecutionPolicy(), share=9)] == [9, 9]
    assert [len(u) for u in _plan_units(
        specs, ExecutionPolicy(batch_replicas=4), share=9)] == [3] * 6
    # A single cell splits too, one piece per worker.
    assert [len(u) for u in _plan_units(
        specs[:3], ExecutionPolicy(), share=2)] == [2, 1]
    assert _pool_share(False, 2, 18) is None
    assert _pool_share(True, 2, 18) == 9
    assert _pool_share(True, 4, 18) == 5
    assert _pool_share(True, 2, 0) == 1


def test_pooled_sweep_reaches_the_pool():
    specs = _tiny_cells(4, seeds=2)
    serial = run_specs(specs, parallel=False)
    pooled = run_specs(specs, parallel=True, max_workers=2)
    assert [_canonical(r) for r in pooled] == [_canonical(r) for r in serial]
    if pooled.execution != "serial":  # a sandbox may refuse the pool
        assert pooled.execution == "process_pool"


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
        for name in ("batch_replicas", "invariant_sample"):
            with pytest.raises(ConfigurationError, match=name):
                ExecutionPolicy(**{name: bad})
    with pytest.raises(ConfigurationError, match="unknown"):
        ExecutionPolicy.from_dict({"batch_replicas": 4, "gpu": True})
    with pytest.raises(ConfigurationError, match="unknown"):
        ExecutionPolicy.from_dict({"mega_batch": 4})
    round_trip = ExecutionPolicy(batch_replicas=4, invariant_sample=2)
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
                            {"batch_replicas": 2})
    typed = _three_runners(specs, tmp_path / "typed",
                           ExecutionPolicy(batch_replicas=2))
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


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "pooled"])
def test_sweep_invariant_sample_reaches_every_run(parallel):
    specs = _grid_star_specs(seeds=range(4))
    sweep = run_specs(specs, parallel=parallel, max_workers=2,
                      policy=ExecutionPolicy(invariant_sample=2))
    for spec, result in zip(specs, sweep):
        assert result.invariants is not None
        assert result.invariants["checked_slots"] > 0
        assert result.invariants["violations"] == {}
        assert _canonical(result) == _canonical(
            run_experiment(spec, invariant_sample=2))


def test_invariant_sample_refused_without_a_slot_engine(tmp_path):
    """An LB-tier algorithm has no slot clock to check: refused in one
    line before anything runs or any store is opened."""
    lb = _cell_specs("none", "no_cd", seeds=[0], topology="grid", n=16,
                     algorithm="trivial_bfs", algorithm_params=None)
    calls = [
        lambda: run_sweep(["grid"], ["trivial_bfs", "decay_bfs"], sizes=16,
                          seeds=1, parallel=False,
                          policy={"invariant_sample": 1}),
        lambda: run_specs(lb, parallel=False, store=str(tmp_path / "store"),
                          policy=ExecutionPolicy(invariant_sample=1)),
        lambda: run_partition(lb, worker=0, ring=1, parallel=False,
                              store=str(tmp_path / "shard"),
                              policy={"invariant_sample": 2}),
        lambda: run_experiment(lb[0], invariant_sample=1),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError,
                           match="invariant_sample.*'trivial_bfs'") as info:
            call()
        assert "\n" not in str(info.value)
    assert not (tmp_path / "store").exists()
    assert not (tmp_path / "shard").exists()
    # Without the checker the same cells run.
    assert run_experiment(lb[0]).invariants is None


@pytest.mark.parametrize("name", ["_test_slot_bfs", "trivial_bfs"])
def test_invariant_sample_reaches_a_registered_slot_adapter(name):
    """Only the built-in LB-tier adapters are refused: an adapter
    registered under a new name, or over a built-in one, may drive
    ``ctx.network()`` and gets its invariants block."""
    from repro.core.simple_bfs import decay_bfs
    from repro.experiments import registry

    builtin = registry._ALGORITHMS.get(name)

    def _slot_bfs(ctx):
        labels = decay_bfs(ctx.network(), ctx.sources(), ctx.depth_budget(),
                           seed=ctx.rng)
        return {"reached": len(labels)}

    registry.register_algorithm(name, overwrite=True)(_slot_bfs)
    try:
        spec = ExperimentSpec(topology="path", n=8, algorithm=name, seed=3)
        sweep = run_specs([spec], parallel=False,
                          policy=ExecutionPolicy(invariant_sample=1))
        assert sweep.results[0].invariants["checked_slots"] > 0
    finally:
        registry._ALGORITHMS.pop(name)
        if builtin is not None:
            registry._ALGORITHMS[name] = builtin


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
# Packed equivalence: fused heterogeneous units x fault preset x
# collision model
# ---------------------------------------------------------------------------

def _hetero_specs(preset, collision_model, seeds=3):
    """A heterogeneous mini-grid: three topologies, different sizes."""
    specs = []
    for topology, n in [("grid", 25), ("star", 17), ("cycle", 24)]:
        specs.extend(_cell_specs(preset, collision_model, seeds=range(seeds),
                                 topology=topology, n=n))
    return specs


def _run_per_cell(specs):
    """Each cell's replicas as their own batched unit, in order."""
    return [result
            for _, cell in itertools.groupby(specs, key=_group_signature)
            for result in run_experiment_batch(list(cell))]


@pytest.mark.parametrize("collision_model", COLLISION_MODELS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("plan", ["fused", "per_cell"])
def test_packed_byte_identical_grid(plan, preset, collision_model):
    """The headline matrix: byte-for-byte against per-seed serial.

    ``fused``: the default planner packs the heterogeneous spec stream
    into one unit.  ``per_cell``: each cell runs as its own replica
    batch, the shape the planner gives cells too large to fuse.  Both
    are checked across every fault preset and collision model.
    """
    specs = _hetero_specs(preset, collision_model, seeds=2)
    serial = run_specs(specs, parallel=False, policy=PER_SEED)
    if plan == "fused":
        assert len(_plan_units(specs, ExecutionPolicy())) == 1
        alt = run_specs(specs, parallel=False)
    else:
        alt = _run_per_cell(specs)
    assert len(alt) == len(serial)
    for ref, got in zip(serial, alt):
        assert _canonical(got) == _canonical(ref)
        assert got.fault_counts() == ref.fault_counts()


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


def test_cli_has_no_backend_flag(capsys):
    from repro.experiments.__main__ import _build_parser

    with pytest.raises(SystemExit) as info:
        _build_parser().parse_args(
            ["run", "--topologies", "grid", "--algorithms", "decay_bfs",
             "--backend", "megabatch"])
    assert info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


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
# Heterogeneous units: planner, dispatcher, stores
# ---------------------------------------------------------------------------

def test_plan_units_fuses_adjacent_small_cells():
    specs = _hetero_specs("none", "no_cd", seeds=3)
    # One heterogeneous unit spanning all nine lanes.
    assert [len(u) for u in _plan_units(specs, ExecutionPolicy())] == [9]
    # Non-batchable cells break the fused run.
    blocker = _cell_specs("none", "no_cd", seeds=[0],
                          algorithm="trivial_bfs")
    mixed = specs[:3] + blocker + specs[3:]
    units = _plan_units(mixed, ExecutionPolicy())
    assert [len(u) for u in units] == [3, 1, 6]
    # Order is always preserved exactly.
    assert [s for u in units for s in u] == mixed


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
    run_specs(specs, parallel=False, store=str(tmp_path / "mega"))
    assert _shard_bytes(tmp_path / "serial") == _shard_bytes(tmp_path / "mega")


def test_mega_resume_store_byte_identical(tmp_path):
    """Cells completed serially drop out of the mega unit; bytes match."""
    specs = _hetero_specs("drop30", "no_cd", seeds=2)
    run_specs(specs, parallel=False, store=str(tmp_path / "reference"),
              policy=PER_SEED)
    resumed = str(tmp_path / "resumed")
    run_specs(specs[:4], parallel=False, store=resumed, policy=PER_SEED)
    sweep = run_specs(specs, parallel=False, store=resumed)
    assert len(sweep) == len(specs)
    assert _shard_bytes(tmp_path / "reference") == _shard_bytes(resumed)


# ---------------------------------------------------------------------------
# CLI surface: one policy from --batch-replicas / --invariant-sample,
# shared by run, sweep, worker
# ---------------------------------------------------------------------------

def test_cli_policy_flags_uniform_across_subcommands():
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
            [command, *common, *args, "--batch-replicas", "4"])
        assert _policy_from_args(ns) == ExecutionPolicy(batch_replicas=4)
        ns = parser.parse_args(
            [command, *common, *args, "--invariant-sample", "2"])
        assert _policy_from_args(ns) == ExecutionPolicy(invariant_sample=2)
        ns = parser.parse_args([command, *common, *args])
        assert _policy_from_args(ns) == ExecutionPolicy()


def test_cli_run_packed_byte_identical(tmp_path, capsys):
    from repro.experiments.__main__ import main

    common = ["run", "--topologies", "grid", "star", "--algorithms",
              "decay_bfs", "--sizes", "16", "--seeds", "2", "--engine",
              "fast", "--serial"]
    plain, mega = tmp_path / "plain.json", tmp_path / "mega.json"
    assert main([*common, "--batch-replicas", "1", "--json", str(plain)]) == 0
    assert main([*common, "--json", str(mega)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == mega.read_bytes()
