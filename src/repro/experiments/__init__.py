"""Unified experiment API: specs, algorithm registry, sweeps, results.

The one harness driving every scenario cell in the repo::

    from repro.experiments import ExperimentSpec, run_experiment, run_sweep

    # One cell: spec in, structured result out.
    result = run_experiment(ExperimentSpec(
        topology="grid", n=640, algorithm="recursive_bfs",
        algorithm_params={"beta": 0.25, "max_depth": 1}, seed=0))
    print(result.max_lb_energy, result.lb_rounds)
    print(result.to_json())            # the BENCH_*.json schema

    # A grid: topology x algorithm x seed, on a process pool.
    sweep = run_sweep(["path", "grid", "tree", "expander"],
                      ["trivial_bfs", "decay_bfs", "leader_election",
                       "mpx_clustering"], sizes=64, seeds=2)
    print(sweep.table())

Seed sweeps over batch-capable cells (``decay_bfs`` on a
seed-deterministic topology with the ``"fast"`` engine) are fused into
**replica-batched** engine runs automatically — R seeds advance in
lockstep over one compiled topology, one fused gather per slot, on the
same executor as mega batching — without changing a single result
byte (``batch_replicas=1`` opts out; see EXPERIMENTS.md and
ARCHITECTURE.md).

Sweeps too big for one host shard across a fleet with no coordinator:
:mod:`repro.experiments.fabric` assigns grid cells to workers by
consistent hashing of the canonical spec hash (a pure function — every
host derives the same assignment), each worker checkpoints into a
local :class:`~repro.experiments.store.SweepStore`, and
:meth:`~repro.experiments.store.SweepStore.merge` unions the shard
stores byte-identically, detecting determinism violations.

``python -m repro.experiments`` exposes the same harness on the
command line (``run``, ``sweep``, ``worker``, ``merge``, ``report``,
``validate``, ``list``).
"""

from .fabric import (
    DEFAULT_VIRTUAL_NODES,
    HashRing,
    member_name,
    owned_specs,
    partition_specs,
    run_partition,
)
from .registry import (
    AlgorithmAdapter,
    RunContext,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)
from .results import (
    FAULT_FIELDS,
    RESULT_KIND,
    RESULT_STATUSES,
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SWEEP_KIND,
    RunResult,
    decode_labels,
    encode_labels,
    spec_hash,
    validate_result_dict,
)
from .runner import (
    DEFAULT_BATCH_REPLICAS,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MEGA_BATCH,
    SweepResult,
    expand_grid,
    iter_grid,
    run_experiment,
    run_experiment_batch,
    run_experiment_mega,
    run_specs,
    run_sweep,
    spec_is_batchable,
    validate_document,
    validate_file,
)
from .spec import ExecutionPolicy, ExperimentSpec, execution_backends
from .store import STORE_VERSION, SweepStore

__all__ = [
    "AlgorithmAdapter",
    "DEFAULT_BATCH_REPLICAS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MEGA_BATCH",
    "DEFAULT_VIRTUAL_NODES",
    "ExecutionPolicy",
    "ExperimentSpec",
    "HashRing",
    "FAULT_FIELDS",
    "RESULT_KIND",
    "RESULT_STATUSES",
    "RunContext",
    "RunResult",
    "SCHEMA_VERSION",
    "STORE_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SWEEP_KIND",
    "SweepResult",
    "SweepStore",
    "algorithm_names",
    "decode_labels",
    "encode_labels",
    "execution_backends",
    "expand_grid",
    "get_algorithm",
    "iter_grid",
    "member_name",
    "owned_specs",
    "partition_specs",
    "register_algorithm",
    "run_experiment",
    "run_experiment_batch",
    "run_experiment_mega",
    "run_partition",
    "run_specs",
    "run_sweep",
    "spec_hash",
    "spec_is_batchable",
    "validate_document",
    "validate_file",
    "validate_result_dict",
]
