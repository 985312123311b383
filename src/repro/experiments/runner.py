"""The grid runner: spec in, structured result out, sweeps in parallel.

:func:`run_experiment` executes one :class:`ExperimentSpec` end to end
(build topology -> wire shared ledger -> dispatch to the registered
adapter -> read the uniform metrics).  :func:`run_sweep` expands a
topology x size x algorithm x seed grid into specs — per-cell seeds are
a pure function of ``(base_seed, grid position)``, derived lazily from
``numpy`` seed-sequence children in grid order — and executes the cells
on a ``ProcessPoolExecutor`` (specs and results are plain picklable
dataclasses), falling back to serial execution when a pool is
unavailable.  Serial and parallel execution produce identical results:
all randomness is pinned inside each spec.

Passing ``store=`` (a :class:`~repro.experiments.store.SweepStore` or a
path) makes a sweep *resumable*: cells whose canonical spec hash is
already in the store are skipped, the rest are submitted in chunks, and
each finished chunk is checkpointed (appended + fsynced) before the
next starts — a killed sweep re-invoked with the same store re-runs
only what is missing.  Because per-cell seeds depend only on grid
position, skipping cells never shifts the seed of any other cell.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.reporting import format_table
from ..errors import ConfigurationError
from ..radio.dynamic import DynamicSchedule, coerce_dynamic_schedule
from ..radio.energy import EnergyLedger
from ..radio.faults import FaultCounters, FaultModel, coerce_fault_model
from ..radio.sinr import SinrParams, coerce_sinr_params
from ..radio.topology import scenario_is_deterministic
from ..rng import make_rng
from .registry import RunContext, _run_decay_bfs_lanes, get_algorithm
from .results import (
    RESULT_KIND,
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SWEEP_KIND,
    RunResult,
    spec_hash,
    validate_result_dict,
)
from .spec import (
    ExecutionPolicy,
    ExperimentSpec,
    canonical_int,
    validate_batch_replicas,
)
from .store import SweepStore

#: Default number of cells per checkpointed chunk when a sweep runs
#: against a store; small enough that a killed run loses little work,
#: large enough to keep a process pool busy.
DEFAULT_CHUNK_SIZE = 16

#: Default cap on how many sibling seeds of one cell are fused into a
#: single replica-batched engine run (``batch_replicas=None``); pass
#: ``batch_replicas=1`` to opt out of batching entirely.
DEFAULT_BATCH_REPLICAS = 32

#: Default cap on the *total* lane count packed into one mega-batched
#: execution unit when a policy selects ``backend="megabatch"``.
DEFAULT_MEGA_BATCH = 64


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Execute one spec and return its structured result.

    Deterministic: the topology, the network wiring, and the algorithm
    each consume their own stream derived from ``spec.seed``, so the
    same spec yields an identical ``RunResult`` (up to wall time) in
    any process, on any engine tier with equivalent semantics.
    """
    graph = spec.build_graph()
    ctx = RunContext(spec=spec, graph=graph, ledger=EnergyLedger())
    adapter = get_algorithm(spec.algorithm)
    start = time.perf_counter()
    output = adapter(ctx)
    # Engine/LBGraph construction is one-off setup, not algorithm work:
    # exclude it so wall_time_s compares engine tiers on throughput.
    wall = time.perf_counter() - start - ctx.setup_time_s
    return _assemble_result(spec, ctx, output, ctx.fault_totals(), wall)


def _assemble_result(
    spec: ExperimentSpec,
    ctx: RunContext,
    output: Mapping[str, Any],
    faults: FaultCounters,
    wall: float,
) -> RunResult:
    """The uniform spec+ledger -> :class:`RunResult` assembly step.

    Shared by :func:`run_experiment` and :func:`run_experiment_mega`
    so the two execution paths can never drift in which metrics they
    report or how; each passes the run's fault/delivery tally.  When
    the run carried an
    :class:`~repro.radio.invariants.InvariantMonitor` (the policy's
    ``invariant_sample`` knob), its counters land in the result's v3
    ``invariants`` block.
    """
    ledger = ctx.ledger
    monitor = ctx.invariant_monitor
    return RunResult(
        spec=spec,
        output=dict(output),
        n=ctx.graph.number_of_nodes(),
        edges=ctx.graph.number_of_edges(),
        lb_rounds=ledger.lb_rounds,
        max_lb_energy=ledger.max_lb(),
        total_lb_energy=ledger.total_lb(),
        time_slots=ledger.time_slots,
        max_slot_energy=ledger.max_slots(),
        total_slot_energy=ledger.total_slots(),
        wall_time_s=wall,
        status="partial" if ctx.partial else "ok",
        faults=faults.as_dict(),
        invariants=monitor.counters() if monitor is not None else None,
    )


def _group_signature(spec: ExperimentSpec) -> str:
    """The cell identity *minus* the seed, as canonical JSON text.

    Two specs with equal signatures are replicas of the same cell:
    same topology/size/algorithm/params/engine/channel/fault stack,
    different coin flips.
    """
    doc = spec.to_dict()
    del doc["seed"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spec_is_batchable(spec: ExperimentSpec) -> bool:
    """Whether this cell may share a lane-batched engine run.

    Four conditions, each load-bearing:

    - the algorithm is ``decay_bfs``, the one slot-level algorithm
      whose lanes fuse (the Local-Broadcast-tier algorithms never
      touch a slot engine);
    - the topology family is seed-deterministic
      (:func:`~repro.radio.topology.scenario_is_deterministic`), so all
      seeds of the cell genuinely share one graph — stochastic families
      build a different topology per seed and always run per-seed;
    - the spec selects the ``"fast"`` engine: a ``"reference"`` spec is
      an explicit request for the audit-grade serial executor, which
      batching would silently override (results would be identical —
      the engines are bit-equivalent — but the request is honored);
    - the spec is static: a dynamic-membership run patches its engine's
      compiled topology slot by slot, which the shared-CSR batched
      engine cannot replay per-lane, so churn cells always run per-seed.
    """
    return (
        spec.engine == "fast"
        and spec.dynamic is None
        and spec.algorithm == "decay_bfs"
        and scenario_is_deterministic(spec.topology)
    )


def run_experiment_batch(specs: Sequence[ExperimentSpec]) -> List[RunResult]:
    """Execute R replicas of one cell: a one-member
    :func:`run_experiment_mega` (sweeps call that directly)."""
    spec_list = list(specs)
    cells = len({_group_signature(s) for s in spec_list})
    if cells > 1:
        raise ConfigurationError(
            f"run_experiment_batch needs replicas of one cell (specs "
            f"identical up to seed); got {cells} distinct cells"
        )
    return run_experiment_mega(spec_list)


def run_experiment_mega(specs: Sequence[ExperimentSpec]) -> List[RunResult]:
    """Execute one or more cells in one fused engine run.

    ``specs`` is a concatenation of replica groups — adjacent specs
    equal up to seed form one member cell; consecutive members may
    differ in topology, size, parameters, and channel, but every cell
    must be batchable (see :func:`spec_is_batchable`).
    A replica batch of one cell is the one-member case.  All members'
    lanes advance on one fused gather per slot
    (:class:`~repro.radio.batch_engine.MegaBatchedNetwork`).  Returns
    one :class:`RunResult` per spec, in order, each **byte-identical**
    (timing aside) to its :func:`run_experiment` run — batching changes
    wall-clock cost, never results, so stores, hashes, and resume
    semantics are untouched.  A single spec runs on its serial engine.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    if len(spec_list) == 1:
        return [run_experiment(spec_list[0])]
    groups: List[List[ExperimentSpec]] = []
    signature: Optional[str] = None
    for spec in spec_list:
        sig = _group_signature(spec)
        if sig != signature:
            groups.append([])
            signature = sig
        groups[-1].append(spec)
    algorithms = {spec.algorithm for spec in spec_list}
    if len(algorithms) != 1:
        raise ConfigurationError(
            f"run_experiment_mega needs one algorithm across all member "
            f"cells; got {sorted(algorithms)}"
        )
    for group in groups:
        if not spec_is_batchable(group[0]):
            raise ConfigurationError(
                f"cell (topology={group[0].topology!r}, algorithm="
                f"{group[0].algorithm!r}, engine={group[0].engine!r}) is "
                f"not batchable: needs decay_bfs, a static "
                f"seed-deterministic topology, and the 'fast' engine"
            )
    member_contexts: List[List[RunContext]] = []
    for group in groups:
        graph = group[0].build_graph()  # seed-independent within the group
        member_contexts.append([
            RunContext(spec=spec, graph=graph, ledger=EnergyLedger())
            for spec in group
        ])
    start = time.perf_counter()
    outputs = _run_decay_bfs_lanes(member_contexts)
    setup = max(
        ctx.setup_time_s for group in member_contexts for ctx in group
    )
    wall_each = max(0.0, time.perf_counter() - start - setup) / len(spec_list)
    results: List[RunResult] = []
    for group, contexts, member_out in zip(groups, member_contexts, outputs):
        for spec, ctx, (output, faults) in zip(group, contexts, member_out):
            results.append(
                _assemble_result(spec, ctx, output, faults, wall_each)
            )
    return results


#: One unit of execution: a tuple of specs.  A singleton runs through
#: :func:`run_experiment`; any longer tuple — one cell's replicas or
#: several cells — is a mega batch for :func:`run_experiment_mega`.
#: Units are what travels to worker processes.
ExecutionUnit = Tuple[ExperimentSpec, ...]


def _run_unit(unit: ExecutionUnit) -> List[RunResult]:
    """Execute one unit (module-level so it pickles to pool workers)."""
    if len(unit) == 1:
        return [run_experiment(unit[0])]
    return run_experiment_mega(list(unit))


def _effective_policy(
    spec: ExperimentSpec, policy: Optional[ExecutionPolicy]
) -> ExecutionPolicy:
    """The spec's hint merged knob-by-knob over the sweep-wide policy."""
    hint = spec.execution
    if hint is None:
        return policy or ExecutionPolicy()
    return hint.merged_over(policy)


def _plan_units(
    specs: Sequence[ExperimentSpec],
    batch_replicas: Optional[int],
    policy: Optional[ExecutionPolicy] = None,
) -> List[ExecutionUnit]:
    """Partition specs into execution units, preserving order.

    *Adjacent* specs that are replicas of one batchable cell (equal up
    to seed — exactly how :func:`iter_grid` lays out its innermost seed
    axis) fuse into one unit, capped at the effective replica limit:
    the specs' own execution hint when set, else the ``batch_replicas``
    argument, else :data:`DEFAULT_BATCH_REPLICAS`.  Everything else
    stays a singleton.  Cells whose effective policy enables invariant
    checking (``invariant_sample``) also stay singletons: the online
    checker hooks the serial engine's slot loop, which the shared-CSR
    batched engine bypasses — fusing would silently skip the checking
    the policy asked for.
    When the effective policy selects ``backend="megabatch"``, adjacent
    units of batchable cells are further
    fused into heterogeneous units of up to ``mega_batch`` lanes total
    (default :data:`DEFAULT_MEGA_BATCH`).  Concatenating the units
    yields the input order unchanged, so downstream result assembly
    (and the store's shard append order) is independent of batching.
    """
    batch_replicas = validate_batch_replicas(batch_replicas)
    units: List[ExecutionUnit] = []
    group: List[ExperimentSpec] = []
    group_key: Optional[Tuple[str, ExecutionPolicy]] = None

    def flush() -> None:
        if not group:
            return
        limit = _effective_policy(group[0], policy).batch_replicas
        if limit is None:
            limit = batch_replicas
        if limit is None:
            limit = DEFAULT_BATCH_REPLICAS
        for start in range(0, len(group), limit):
            units.append(tuple(group[start:start + limit]))
        group.clear()

    for spec in specs:
        if (
            not spec_is_batchable(spec)
            or _effective_policy(spec, policy).invariant_sample is not None
        ):
            flush()
            group_key = None
            units.append((spec,))
            continue
        key = (_group_signature(spec), _effective_policy(spec, policy))
        if key != group_key:
            flush()
            group_key = key
        group.append(spec)
    flush()
    return _merge_mega_units(units, policy)


def _merge_mega_units(
    units: List[ExecutionUnit],
    policy: Optional[ExecutionPolicy],
) -> List[ExecutionUnit]:
    """Fuse adjacent mega-eligible units into heterogeneous mega units.

    A unit is mega-eligible when its effective policy asks for
    ``backend="megabatch"`` and its cell is
    :func:`spec_is_batchable`; adjacent eligible units merge until the
    next unit would push the merged lane count past the effective
    ``mega_batch`` cap.  Order is preserved, so results and store
    shards are laid out exactly as without mega fusion.
    """
    merged: List[ExecutionUnit] = []
    pending: List[ExecutionUnit] = []
    pending_lanes = 0
    pending_cap = DEFAULT_MEGA_BATCH

    def flush_pending() -> None:
        nonlocal pending_lanes
        if pending:
            merged.append(tuple(s for unit in pending for s in unit))
            pending.clear()
        pending_lanes = 0

    for unit in units:
        eff = _effective_policy(unit[0], policy)
        if not (eff.wants_mega() and spec_is_batchable(unit[0])):
            flush_pending()
            merged.append(unit)
            continue
        cap = eff.mega_batch or DEFAULT_MEGA_BATCH
        if pending and pending_lanes + len(unit) > pending_cap:
            flush_pending()
        if not pending:
            pending_cap = cap
        pending.append(unit)
        pending_lanes += len(unit)
    flush_pending()
    return merged


def _int_axis(value: Any, axis: str) -> Union[int, List[Any]]:
    """A grid axis as one int or a list of values.

    Numpy integers (scalars or arrays) become Python ints; bools are
    refused, and so is anything that is neither an int nor iterable.
    """
    value = canonical_int(value, axis)
    if isinstance(value, int):
        return value
    try:
        items = list(value)
    except TypeError:
        raise ConfigurationError(
            f"{axis} must be an int or a sequence of ints, got {value!r}"
        ) from None
    return [canonical_int(item, axis) for item in items]


def iter_grid(
    topologies: Sequence[str],
    algorithms: Sequence[str],
    sizes: Union[int, Sequence[int]] = 64,
    seeds: Union[int, Sequence[int]] = 2,
    base_seed: int = 0,
    engine: str = "reference",
    collision_model: str = "no_cd",
    message_limit_bits: Optional[int] = None,
    algorithm_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    fault_model: Union[None, str, Mapping[str, Any], FaultModel] = None,
    dynamic: Union[None, str, Mapping[str, Any], DynamicSchedule] = None,
    sinr: Union[None, str, Mapping[str, Any], SinrParams] = None,
    execution: Union[None, Mapping[str, Any], ExecutionPolicy] = None,
) -> Iterator[ExperimentSpec]:
    """Lazily expand a scenario grid, one spec per cell, in grid order.

    ``sizes`` may be one size or a sequence (an extra grid axis);
    numpy integers and integer arrays count as ints, bools are refused.
    ``seeds`` is either a count — per-cell seeds are then a pure
    function of ``(base_seed, grid position)``: one independent
    seed-sequence child per (instance, seed index) in grid order,
    materialized only when the cell's spec is actually yielded — or an
    explicit sequence of seed integers shared by every (topology, size,
    algorithm) combination.  Because position (not execution order)
    determines the seed, a resumed sweep that skips completed cells
    assigns every remaining cell exactly the seed it had in the
    original run; ``tests/experiments/test_runner.py`` pins the
    mapping.  ``algorithm_params`` maps algorithm name -> its parameter
    dict.  ``fault_model`` (a :class:`~repro.radio.faults.FaultModel`,
    its dict form, or a preset name) applies one fault stack to every
    cell; sweep a fault axis by expanding one grid per model.
    ``dynamic`` (a :class:`~repro.radio.dynamic.DynamicSchedule`, its
    dict form, or a preset name) likewise applies one membership
    schedule to every cell.  ``sinr`` (a
    :class:`~repro.radio.sinr.SinrParams`, its dict form, or a preset
    name from :func:`~repro.radio.sinr.named_sinr_params`) sets the
    physical-layer knobs for every cell; it requires
    ``collision_model="sinr"``.  ``execution`` (an
    :class:`~repro.experiments.spec.ExecutionPolicy` or its dict form)
    stamps one execution hint onto every cell — not part of cell
    identity, but ``invariant_sample`` does decide whether results
    carry the v3 ``invariants`` block.

    Arguments are validated eagerly, at call time; only the spec
    construction (and derived-seed materialization) is deferred to
    iteration.
    """
    if not topologies:
        raise ConfigurationError("expand_grid requires at least one topology")
    if not algorithms:
        raise ConfigurationError("expand_grid requires at least one algorithm")
    sizes = _int_axis(sizes, "sizes")
    size_list = [sizes] if isinstance(sizes, int) else sizes
    if not size_list:
        raise ConfigurationError("expand_grid requires at least one size")
    faults = coerce_fault_model(fault_model)
    schedule = coerce_dynamic_schedule(dynamic)
    sinr_params = coerce_sinr_params(sinr)
    if execution is not None and not isinstance(execution, ExecutionPolicy):
        execution = ExecutionPolicy.from_dict(execution)
    params_by_algorithm = dict(algorithm_params or {})
    unknown = set(params_by_algorithm) - set(algorithms)
    if unknown:
        raise ConfigurationError(
            f"algorithm_params given for algorithms not in the grid: {sorted(unknown)}"
        )

    # Seeds are attached to (topology, size) instances, not to
    # algorithms: every algorithm in the grid sees the same instance
    # for a given seed index, so comparisons across algorithms are
    # paired.  Derived mode spawns the seed-sequence children up front
    # (cheap, no generator state) but draws each cell's seed integer
    # lazily, caching it per (instance, seed index) so the algorithm
    # axis reuses rather than re-derives it.
    instances = [(topo, n) for topo in topologies for n in size_list]
    seeds = _int_axis(seeds, "seeds")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ConfigurationError(f"seed count must be >= 1, got {seeds}")
        children = make_rng(base_seed).bit_generator.seed_seq.spawn(
            len(instances) * seeds
        )
        seeds_per_instance = seeds
        cache: Dict[int, int] = {}

        def cell_seed(instance_index: int, seed_index: int) -> int:
            position = instance_index * seeds_per_instance + seed_index
            if position not in cache:
                cache[position] = int(
                    np.random.default_rng(children[position]).integers(0, 2**31)
                )
            return cache[position]
    else:
        explicit = [int(s) for s in seeds]
        if not explicit:
            raise ConfigurationError("expand_grid requires at least one seed")
        seeds_per_instance = len(explicit)

        def cell_seed(instance_index: int, seed_index: int) -> int:
            return explicit[seed_index]

    def generate() -> Iterator[ExperimentSpec]:
        for i, (topo, n) in enumerate(instances):
            for algo in algorithms:
                for j in range(seeds_per_instance):
                    yield ExperimentSpec(
                        topology=topo,
                        n=n,
                        algorithm=algo,
                        algorithm_params=params_by_algorithm.get(algo),
                        engine=engine,
                        collision_model=collision_model,
                        message_limit_bits=message_limit_bits,
                        seed=cell_seed(i, j),
                        fault_model=faults,
                        dynamic=schedule,
                        sinr=sinr_params,
                        execution=execution,
                    )

    return generate()


def expand_grid(
    topologies: Sequence[str],
    algorithms: Sequence[str],
    sizes: Union[int, Sequence[int]] = 64,
    seeds: Union[int, Sequence[int]] = 2,
    base_seed: int = 0,
    engine: str = "reference",
    collision_model: str = "no_cd",
    message_limit_bits: Optional[int] = None,
    algorithm_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    fault_model: Union[None, str, Mapping[str, Any], FaultModel] = None,
    dynamic: Union[None, str, Mapping[str, Any], DynamicSchedule] = None,
    sinr: Union[None, str, Mapping[str, Any], SinrParams] = None,
    execution: Union[None, Mapping[str, Any], ExecutionPolicy] = None,
) -> List[ExperimentSpec]:
    """Eager form of :func:`iter_grid` (same arguments and order)."""
    return list(iter_grid(
        topologies,
        algorithms,
        sizes=sizes,
        seeds=seeds,
        base_seed=base_seed,
        engine=engine,
        collision_model=collision_model,
        message_limit_bits=message_limit_bits,
        algorithm_params=algorithm_params,
        fault_model=fault_model,
        dynamic=dynamic,
        sinr=sinr,
        execution=execution,
    ))


@dataclass(frozen=True)
class SweepResult:
    """An ordered collection of run results plus reporting helpers.

    ``execution`` records how the cells were actually executed:
    ``"serial"``, ``"process_pool"``, or ``"store"`` (every cell served
    from a sweep store, nothing executed).  It is excluded from
    equality so a serial re-run compares equal to a parallel one.
    """

    results: tuple
    execution: str = field(default="serial", compare=False)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    # ------------------------------------------------------------------
    def to_dict(self, include_timing: bool = False) -> Dict[str, Any]:
        """Canonical JSON-native form of the whole sweep."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": SWEEP_KIND,
            "results": [r.to_dict(include_timing=include_timing) for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        """Rebuild (and validate) a sweep from :meth:`to_dict` output."""
        if data.get("kind") != SWEEP_KIND:
            raise ConfigurationError(
                f"unexpected kind {data.get('kind')!r}; expected {SWEEP_KIND!r}"
            )
        if data.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS:
            raise ConfigurationError(
                f"unsupported schema_version {data.get('schema_version')!r}"
            )
        return cls(
            results=tuple(RunResult.from_dict(r) for r in data.get("results", ()))
        )

    # ------------------------------------------------------------------
    def rows(self) -> List[List[Any]]:
        """One summary row per cell, in grid order."""
        return [
            [
                r.spec.topology,
                r.n,
                r.spec.algorithm,
                r.spec.seed,
                r.headline(),
                r.status,
                r.lb_rounds,
                r.max_lb_energy,
                r.time_slots,
                r.max_slot_energy,
            ]
            for r in self.results
        ]

    def table(self, title: str = "") -> str:
        """The sweep as an :func:`repro.analysis.format_table` report."""
        return format_table(
            ["topology", "n", "algorithm", "seed", "result", "status",
             "lb_rounds", "max_lb", "slots", "max_slot_E"],
            self.rows(),
            title=title,
        )


def run_specs(
    specs: Sequence[ExperimentSpec],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    store: Union[None, str, SweepStore] = None,
    chunk_size: Optional[int] = None,
    batch_replicas: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> SweepResult:
    """Execute prepared specs, in cell order, optionally on a pool.

    Adjacent specs that are replicas of one batchable cell — identical
    up to seed, seed-deterministic topology, ``"fast"`` engine,
    ``decay_bfs`` (see :func:`spec_is_batchable`) — are fused into
    single replica-batched engine runs of up to ``batch_replicas``
    seeds each (default :data:`DEFAULT_BATCH_REPLICAS`;
    ``batch_replicas=1`` opts out).
    ``policy`` (an :class:`~repro.experiments.spec.ExecutionPolicy`)
    sets sweep-wide execution knobs — replica cap and mega batching;
    per-spec ``execution`` hints override it knob by knob.  When the
    effective policy selects ``backend="megabatch"``, adjacent
    batchable cells fuse further into heterogeneous
    mega units (:func:`run_experiment_mega`).
    Batching never changes results: every cell's ``RunResult`` is
    byte-identical (timing aside) to its per-seed execution, so result
    order, store contents, hashes, and resume semantics are unaffected.

    Parallel execution uses a ``ProcessPoolExecutor`` (one task per
    execution unit, results re-assembled in submission order).  If a
    pool cannot be created or dies (restricted sandboxes, missing
    semaphores), the remaining work falls back to in-process serial
    execution — the results are identical either way.

    With ``store`` (a :class:`~repro.experiments.store.SweepStore` or a
    directory path), the sweep becomes resumable: cells already in the
    store are not re-executed (completed cells drop out of their batch
    group before units form), pending cells are submitted in chunks of
    about ``chunk_size`` cells (default :data:`DEFAULT_CHUNK_SIZE`; a
    batch unit is never split across chunks), and every finished chunk
    is durably checkpointed before the next starts.  The returned
    ``SweepResult`` still covers *every* requested cell, in request
    order, mixing stored and freshly-run results — which are
    byte-identical anyway, timing aside.
    """
    spec_list = list(specs)
    chunk_size = validate_batch_replicas(chunk_size, "chunk_size")
    if store is None:
        units = _plan_units(spec_list, batch_replicas, policy)
        results, execution = _execute_all(
            units, parallel, max_workers, chunk=len(spec_list) or 1
        )
        return SweepResult(results=tuple(results), execution=execution)

    if isinstance(store, str):
        store = SweepStore(store)
    hashes = [spec_hash(s) for s in spec_list]
    done = store.completed_hashes()
    pending: List[ExperimentSpec] = []
    pending_hashes = set()
    for h, s in zip(hashes, spec_list):
        if h not in done and h not in pending_hashes:
            pending.append(s)
            pending_hashes.add(h)

    fresh: Dict[str, RunResult] = {}

    def checkpoint(batch_results: List[RunResult]) -> None:
        # Durable before the next chunk starts: a crash after this
        # point costs at most the *next* chunk, never this one.
        store.add_many(batch_results)
        for r in batch_results:
            fresh[spec_hash(r.spec)] = r

    _, execution = _execute_all(
        _plan_units(pending, batch_replicas, policy), parallel, max_workers,
        chunk=chunk_size or DEFAULT_CHUNK_SIZE,
        on_batch=checkpoint, idle_execution="store",
    )
    assembled = tuple(
        fresh[h] if h in fresh else store.get(h) for h in hashes
    )
    return SweepResult(results=assembled, execution=execution)


def _chunk_units(units: List[ExecutionUnit], chunk: int) -> Iterator[List[ExecutionUnit]]:
    """Greedily pack whole units into chunks of >= ``chunk`` cells.

    Units never split (a replica batch is one engine run), so a chunk
    closes at the first unit boundary at or past the target size —
    checkpoint granularity under batching is therefore approximate, but
    the *sequence* of results across chunks matches per-seed execution
    exactly.
    """
    batch: List[ExecutionUnit] = []
    cells = 0
    for unit in units:
        batch.append(unit)
        cells += len(unit)
        if cells >= chunk:
            yield batch
            batch, cells = [], 0
    if batch:
        yield batch


def _execute_all(
    units: List[ExecutionUnit],
    parallel: bool,
    max_workers: Optional[int],
    chunk: int,
    on_batch: Any = None,
    idle_execution: str = "serial",
):
    """Run execution units in ~``chunk``-cell batches on one shared pool.

    The single implementation of the pool-with-serial-fallback policy:
    a pool is attempted when ``parallel`` and there is more than one
    cell; if it cannot be created or dies mid-batch (restricted
    sandboxes, missing semaphores), the affected batch and everything
    after it runs serially in-process — identical results either way.
    ``on_batch`` (when given) is invoked with each finished batch's
    flattened results before the next one starts.  Returns
    ``(results, execution)`` where ``execution`` is ``idle_execution``
    when there was nothing to run.
    """
    results: List[RunResult] = []
    execution = idle_execution
    pool: Optional[ProcessPoolExecutor] = None
    try:
        # A pool only pays off with more than one *unit*: a fully fused
        # sweep (one batch group) would ship its single task to one
        # worker and parallelize nothing.
        if parallel and len(units) > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=max_workers)
            except (OSError, PermissionError, NotImplementedError):
                pool = None
        for batch in _chunk_units(units, chunk):
            batch_results: Optional[List[List[RunResult]]] = None
            if pool is not None:
                try:
                    batch_results = list(pool.map(_run_unit, batch))
                    execution = "process_pool"
                except (OSError, PermissionError, NotImplementedError,
                        BrokenProcessPool):
                    pool.shutdown(wait=False)
                    pool = None
            if batch_results is None:
                batch_results = [_run_unit(u) for u in batch]
                execution = "serial"
            flat = [r for unit_results in batch_results for r in unit_results]
            if on_batch is not None:
                on_batch(flat)
            results.extend(flat)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    return results, execution


def run_sweep(
    topologies: Sequence[str],
    algorithms: Sequence[str],
    sizes: Union[int, Sequence[int]] = 64,
    seeds: Union[int, Sequence[int]] = 2,
    base_seed: int = 0,
    engine: str = "reference",
    collision_model: str = "no_cd",
    message_limit_bits: Optional[int] = None,
    algorithm_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    fault_model: Union[None, str, Mapping[str, Any], FaultModel] = None,
    dynamic: Union[None, str, Mapping[str, Any], DynamicSchedule] = None,
    sinr: Union[None, str, Mapping[str, Any], SinrParams] = None,
    execution: Union[None, Mapping[str, Any], ExecutionPolicy] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    store: Union[None, str, SweepStore] = None,
    chunk_size: Optional[int] = None,
    batch_replicas: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> SweepResult:
    """Expand a grid (see :func:`expand_grid`) and execute every cell.

    ``store``/``chunk_size`` make the sweep resumable and incrementally
    checkpointed; ``batch_replicas`` caps (or, set to 1, disables)
    replica batching of sibling seeds — the grid's seed axis is
    innermost, so each cell's seeds arrive adjacent and batch-eligible.
    ``policy`` sets sweep-wide execution knobs (replica cap, mega
    batching).  See :func:`run_specs` for all three.
    """
    specs = iter_grid(
        topologies,
        algorithms,
        sizes=sizes,
        seeds=seeds,
        base_seed=base_seed,
        engine=engine,
        collision_model=collision_model,
        message_limit_bits=message_limit_bits,
        algorithm_params=algorithm_params,
        fault_model=fault_model,
        dynamic=dynamic,
        sinr=sinr,
        execution=execution,
    )
    return run_specs(specs, parallel=parallel, max_workers=max_workers,
                     store=store, chunk_size=chunk_size,
                     batch_replicas=batch_replicas, policy=policy)


def validate_document(data: Mapping[str, Any]) -> List[RunResult]:
    """Validate any supported JSON document against the result schema.

    Accepts a single-result document, a sweep document, or a benchmark
    record carrying a ``results`` list (the ``BENCH_*.json`` shape).
    Returns the parsed results; raises
    :class:`~repro.errors.ConfigurationError` on the first violation.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"document must be a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") == RESULT_KIND:
        return [validate_result_dict(data)]
    if "results" in data:
        entries = data["results"]
        if not isinstance(entries, list):
            raise ConfigurationError("document 'results' must be a list")
        if not entries and data.get("kind") != SWEEP_KIND:
            # An empty grid is a legal sweep — ``run_specs([])`` must
            # round-trip through its own canonical document — but a
            # benchmark record with nothing measured is a broken run.
            raise ConfigurationError(
                "document 'results' must be a non-empty list "
                f"(only a {SWEEP_KIND!r} document may be empty)"
            )
        parsed = []
        for i, entry in enumerate(entries):
            try:
                parsed.append(validate_result_dict(entry))
            except ConfigurationError as exc:
                raise ConfigurationError(f"results[{i}]: {exc}") from None
        return parsed
    raise ConfigurationError(
        "document is neither a run_result nor carries a 'results' list"
    )


def validate_file(path: str) -> List[RunResult]:
    """Load a JSON file and validate it via :func:`validate_document`.

    Every failure mode — unreadable file, malformed JSON, schema
    violation — surfaces as :class:`~repro.errors.ConfigurationError`,
    so callers (the CLI, CI) report problems instead of crashing.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    return validate_document(data)
