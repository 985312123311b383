"""Unified experiment API: specs, algorithm table, sweeps, results.

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

Every static ``decay_bfs`` spec on the ``"fast"`` engine runs on the
array lanes, and adjacent such cells are fused automatically — their
seeds advance in lockstep, one fused gather per slot — without changing
a single result byte (``policy=ExecutionPolicy(batch_replicas=1)``
runs one lane per unit; see EXPERIMENTS.md and ARCHITECTURE.md).

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
from .spec import ExecutionPolicy, ExperimentSpec
from .store import STORE_VERSION, SweepStore

__all__ = [
    "AlgorithmAdapter",
    "DEFAULT_BATCH_REPLICAS",
    "DEFAULT_CHUNK_SIZE",
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
    "expand_grid",
    "get_algorithm",
    "iter_grid",
    "member_name",
    "owned_specs",
    "partition_specs",
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
