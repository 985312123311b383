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

import functools
import itertools
import json
import os
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
from ..radio.topology import degrees, scenario_is_deterministic
from ..rng import make_rng
from .registry import LANE_RUNNERS, RunContext, check_invariant_sample, get_algorithm
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

#: Default cap on the lanes (specs) of one fused execution unit
#: (``ExecutionPolicy(batch_replicas=None)``); ``batch_replicas=1``
#: runs every spec alone.
DEFAULT_BATCH_REPLICAS = 64

#: A cell joins an open fused unit only while the unit then holds at
#: most this many devices (the sum of ``spec.n``): fusing cells of a
#: few hundred devices bought no wall time and cost peak memory.
UNIT_MAX_DEVICES = 1536


def run_experiment(
    spec: ExperimentSpec, invariant_sample: Optional[int] = None
) -> RunResult:
    """Execute one spec and return its structured result.

    Deterministic: the topology, the network wiring, and the algorithm
    each consume their own stream derived from ``spec.seed``, so the
    same spec yields an identical ``RunResult`` (up to wall time) in
    any process, on any engine tier with equivalent semantics.  A
    batchable spec (see :func:`spec_is_batchable`) runs as a one-lane
    :func:`run_experiment_mega`; every other spec runs its registered
    adapter, which builds the spec's serial engine when it needs slots.
    ``invariant_sample`` (a positive int) checks the online safety
    invariants every that many slots of the run's serial engine; the
    result then carries the v3 ``invariants`` block.  ``wall_time_s``
    is the whole call, graph build and engine construction included.
    """
    start = time.perf_counter()
    invariant_sample = validate_batch_replicas(
        invariant_sample, "invariant_sample"
    )
    check_invariant_sample([spec], invariant_sample)
    if invariant_sample is None and spec_is_batchable(spec):
        return run_experiment_mega([spec])[0]
    return _run_adapter(spec, invariant_sample, start)[0]


def _run_adapter(
    spec: ExperimentSpec,
    invariant_sample: Optional[int] = None,
    start: Optional[float] = None,
) -> Tuple[RunResult, RunContext]:
    """Run ``spec``'s registered adapter on a fresh graph and context.

    An adapter that needs slots builds the spec's serial engine
    (``ctx.network()``), never the array lanes, so this is also the
    serial oracle the byte-identity tests compare lanes against.  The
    run's context is returned with its result.  ``start`` is the
    ``time.perf_counter()`` the wall time counts from (default: now).
    """
    if start is None:
        start = time.perf_counter()
    ctx = RunContext(spec=spec, graph=spec.build_graph(),
                     ledger=EnergyLedger(), invariant_sample=invariant_sample)
    output = get_algorithm(spec.algorithm)(ctx)
    wall = time.perf_counter() - start
    return _assemble_result(spec, ctx, output, ctx.fault_totals(), wall), ctx


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
    :class:`~repro.radio.invariants.InvariantMonitor` (``run_experiment``'s
    ``invariant_sample``), its counters land in the result's v3
    ``invariants`` block.
    """
    ledger = ctx.ledger
    monitor = ctx.invariant_monitor
    return RunResult(
        spec=spec,
        output=dict(output),
        n=ctx.graph.number_of_nodes(),
        edges=sum(degrees(ctx.graph).values()) // 2,
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
    """Whether this spec runs on the array lanes (alone or fused).

    Three conditions, each load-bearing:

    - the algorithm has a lane-fused runner in
      :data:`~repro.experiments.registry.LANE_RUNNERS` (only
      ``decay_bfs``; the LB-tier algorithms never touch a slot engine);
    - the spec selects the ``"fast"`` engine: a ``"reference"`` spec is
      an explicit request for the audit-grade serial executor, which
      batching would silently override (results would be identical —
      the engines are bit-equivalent — but the request is honored);
    - the spec is static: a dynamic-membership run patches its engine's
      compiled topology slot by slot, which the shared-CSR batched
      engine cannot replay per-lane, so churn cells always run on the
      serial engine.
    """
    return (
        spec.engine == "fast"
        and spec.dynamic is None
        and spec.algorithm in LANE_RUNNERS
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
    """Execute one or more batchable specs in one fused engine run.

    ``specs`` is a concatenation of cells — adjacent specs equal up to
    seed form one cell; consecutive cells may differ in topology, size,
    parameters, and channel, but every cell must be batchable (see
    :func:`spec_is_batchable`).  The seeds of a seed-deterministic
    family share one graph as one member; each seed of a stochastic
    family is a member of its own, with its own graph.  A lone spec is
    a one-lane run.  All members' lanes advance on one fused gather per
    slot (:class:`~repro.radio.batch_engine.MegaBatchedNetwork`).
    Returns one :class:`RunResult` per spec, in order, each
    **byte-identical** (timing aside) to its run on the serial device
    engine — batching changes wall-clock cost, never results, so
    stores, hashes, and resume semantics are untouched.  Each result's
    ``wall_time_s`` is the whole call's time divided by the number of
    specs.
    """
    start = time.perf_counter()
    spec_list = list(specs)
    if not spec_list:
        return []
    algorithms = {spec.algorithm for spec in spec_list}
    if len(algorithms) != 1:
        raise ConfigurationError(
            f"run_experiment_mega needs one algorithm across all member "
            f"cells; got {sorted(algorithms)}"
        )
    members: List[List[ExperimentSpec]] = []
    for key, group in itertools.groupby(spec_list, key=_unit_cell_key):
        member = list(group)
        if key is None:
            raise ConfigurationError(
                f"cell (topology={member[0].topology!r}, algorithm="
                f"{member[0].algorithm!r}, engine={member[0].engine!r}) is "
                f"not batchable: needs decay_bfs, a static topology, and "
                f"the 'fast' engine"
            )
        members.append(member)
    member_contexts: List[List[RunContext]] = []
    for member in members:
        graph = member[0].build_graph()  # seed-independent within a member
        member_contexts.append([
            RunContext(spec=spec, graph=graph, ledger=EnergyLedger())
            for spec in member
        ])
    outputs = LANE_RUNNERS[spec_list[0].algorithm](member_contexts)
    wall_each = (time.perf_counter() - start) / len(spec_list)
    results: List[RunResult] = []
    for contexts, member_out in zip(member_contexts, outputs):
        for ctx, (output, faults) in zip(contexts, member_out):
            results.append(
                _assemble_result(ctx.spec, ctx, output, faults, wall_each)
            )
    return results


#: One unit of execution: a tuple of specs.  A singleton runs through
#: :func:`run_experiment`; any longer tuple — one cell's replicas or
#: several cells — is a mega batch for :func:`run_experiment_mega`.
#: Units are what travels to worker processes.
ExecutionUnit = Tuple[ExperimentSpec, ...]


def _run_unit(
    unit: ExecutionUnit, invariant_sample: Optional[int] = None
) -> List[RunResult]:
    """Execute one unit (module-level so it pickles to pool workers).

    Checked specs always plan as singletons, so ``invariant_sample``
    only ever reaches :func:`run_experiment`.
    """
    if len(unit) == 1:
        return [run_experiment(unit[0], invariant_sample=invariant_sample)]
    return run_experiment_mega(list(unit))


def _coerce_policy(
    policy: Union[None, Mapping[str, Any], ExecutionPolicy],
) -> ExecutionPolicy:
    """The sweep's one policy from an :class:`ExecutionPolicy`, its
    ``to_dict`` mapping, or ``None`` (every knob at its default)."""
    if policy is None:
        return ExecutionPolicy()
    if isinstance(policy, ExecutionPolicy):
        return policy
    return ExecutionPolicy.from_dict(policy)


def _unit_cell_key(spec: ExperimentSpec) -> Optional[Tuple[str, Optional[int]]]:
    """What :func:`_plan_units` fills and caps as one cell and
    :func:`run_experiment_mega` runs as one member on one graph: a
    batchable spec's cell, split by seed when its family builds a graph
    per seed (so the device cap counts each seed alone); ``None`` for a
    spec that is never fused."""
    if not spec_is_batchable(spec):
        return None
    seed = None if scenario_is_deterministic(spec.topology) else spec.seed
    return _group_signature(spec), seed


def _plan_units(
    specs: Sequence[ExperimentSpec],
    policy: ExecutionPolicy,
    share: Optional[int] = None,
) -> List[ExecutionUnit]:
    """Partition specs into execution units, preserving order.

    *Adjacent* specs that are replicas of one batchable cell (equal up
    to seed — exactly how :func:`iter_grid` lays out its innermost seed
    axis) fill units of at most ``policy.batch_replicas`` lanes
    (default :data:`DEFAULT_BATCH_REPLICAS`; ``share`` lowers it on a
    pool), and a whole next cell joins the open unit while it stays
    within that cap and :data:`UNIT_MAX_DEVICES` devices.  Each seed
    of a stochastic family counts as a cell of its own, since it builds
    its own graph: small ones fuse under the device cap, and a large
    one gets a one-lane unit.  Every other spec is a singleton, and so
    is every spec when the cap is 1 (one lane per unit) or under
    ``invariant_sample``: the online checker
    hooks the serial engine's slot loop, which the array lanes bypass.
    Concatenating the units yields the input order unchanged, so
    downstream result assembly (and the store's shard append order) is
    independent of batching.
    """
    limit = policy.batch_replicas or DEFAULT_BATCH_REPLICAS
    if share is not None:
        limit = min(limit, share)
    if policy.invariant_sample is not None:
        limit = 1
    units: List[ExecutionUnit] = []
    unit: List[ExperimentSpec] = []
    for key, group in itertools.groupby(specs, key=_unit_cell_key):
        cell = list(group)
        if unit and (key is None or len(unit) + len(cell) > limit
                     or sum(s.n for s in unit + cell) > UNIT_MAX_DEVICES):
            units.append(tuple(unit))
            unit = []
        if key is None:
            units.extend((spec,) for spec in cell)
            continue
        for spec in cell:
            if len(unit) == limit:
                units.append(tuple(unit))
                unit = []
            unit.append(spec)
    if unit:
        units.append(tuple(unit))
    return units


def _pool_share(
    parallel: bool, max_workers: Optional[int], cells: int
) -> Optional[int]:
    """The lane cap that gives each pool worker about one unit of
    ``cells`` (``None`` in-process)."""
    workers = max_workers or os.cpu_count() or 1
    return max(1, -(-cells // workers)) if parallel else None


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
    ``collision_model="sinr"``.  How the cells run is not a grid axis:
    pass an :class:`~repro.experiments.spec.ExecutionPolicy` to
    :func:`run_specs`.

    Arguments are validated eagerly, at call time; only the spec
    construction (and derived-seed materialization) is deferred to
    iteration.
    """
    if not topologies:
        raise ConfigurationError("a grid needs at least one topology")
    if not algorithms:
        raise ConfigurationError("a grid needs at least one algorithm")
    sizes = _int_axis(sizes, "sizes")
    size_list = [sizes] if isinstance(sizes, int) else sizes
    if not size_list:
        raise ConfigurationError("a grid needs at least one size")
    faults = coerce_fault_model(fault_model)
    schedule = coerce_dynamic_schedule(dynamic)
    sinr_params = coerce_sinr_params(sinr)
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
            raise ConfigurationError("a grid needs at least one seed")
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
                    )

    return generate()


def expand_grid(
    topologies: Sequence[str], algorithms: Sequence[str], **grid: Any
) -> List[ExperimentSpec]:
    """Eager form of :func:`iter_grid` (same arguments and order)."""
    return list(iter_grid(topologies, algorithms, **grid))


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
    policy: Union[None, Mapping[str, Any], ExecutionPolicy] = None,
) -> SweepResult:
    """Execute prepared specs, in cell order, optionally on a pool.

    ``policy`` — an :class:`~repro.experiments.spec.ExecutionPolicy`
    or its ``to_dict`` mapping; ``None`` keeps every default — is the
    one statement of how the specs run.  Adjacent batchable specs —
    ``decay_bfs`` on the ``"fast"`` engine over a static topology (see
    :func:`spec_is_batchable`) — fuse into lane-batched engine runs
    (:func:`run_experiment_mega`): the planner packs small cells
    together up to ``policy.batch_replicas`` lanes and a device cap,
    gives larger cells a unit each, and on a pool keeps about one unit
    per worker (:func:`_plan_units`; ``policy.batch_replicas=1`` runs
    every spec as a one-lane unit).  With
    ``invariant_sample``, every spec runs alone on its serial engine
    under the online invariant checker, in-process or pooled alike, and
    carries the v3 ``invariants`` block; a spec whose algorithm drives
    no slot engine is refused before anything runs.
    Batching never changes results: every cell's ``RunResult`` is
    byte-identical (timing aside) to its serial device-engine run, so result
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
    max_workers = validate_batch_replicas(max_workers, "max_workers")
    policy = _coerce_policy(policy)
    task = functools.partial(
        _run_unit, invariant_sample=policy.invariant_sample
    )
    spec_list = list(specs)
    chunk_size = validate_batch_replicas(chunk_size, "chunk_size")
    check_invariant_sample(spec_list, policy.invariant_sample)
    if store is None:
        units = _plan_units(spec_list, policy, _pool_share(
            parallel, max_workers, len(spec_list)))
        results, execution = _execute_all(
            task, units, parallel, max_workers, chunk=len(spec_list) or 1
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

    chunk = chunk_size or DEFAULT_CHUNK_SIZE
    share = _pool_share(parallel, max_workers, min(chunk, len(pending)))
    _, execution = _execute_all(
        task, _plan_units(pending, policy, share), parallel, max_workers,
        chunk=chunk,
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
    the *sequence* of results across chunks matches one-spec units
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
    task: Any,
    units: List[ExecutionUnit],
    parallel: bool,
    max_workers: Optional[int],
    chunk: int,
    on_batch: Any = None,
    idle_execution: str = "serial",
):
    """Run ``task`` on execution units in ~``chunk``-cell batches on
    one shared pool.

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
                    batch_results = list(pool.map(task, batch))
                    execution = "process_pool"
                except (OSError, PermissionError, NotImplementedError,
                        BrokenProcessPool):
                    pool.shutdown(wait=False)
                    pool = None
            if batch_results is None:
                batch_results = [task(u) for u in batch]
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
    *,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    store: Union[None, str, SweepStore] = None,
    chunk_size: Optional[int] = None,
    policy: Union[None, Mapping[str, Any], ExecutionPolicy] = None,
    **grid: Any,
) -> SweepResult:
    """Expand a grid and execute every cell.

    ``grid`` holds the remaining :func:`iter_grid` axes (``sizes``,
    ``seeds``, ``engine``, ...).  ``store``/``chunk_size`` make the
    sweep resumable and incrementally checkpointed; ``policy`` says how
    the cells run — the grid's seed axis is innermost, so each cell's
    seeds arrive adjacent and batch-eligible.  See :func:`run_specs`
    for all three.
    """
    return run_specs(iter_grid(topologies, algorithms, **grid),
                     parallel=parallel, max_workers=max_workers,
                     store=store, chunk_size=chunk_size, policy=policy)


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
