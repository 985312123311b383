"""The algorithm registry: one adapter protocol for every entrypoint.

Each algorithm in the library keeps its bespoke signature
(``trivial_bfs(lbg, sources, ...)``, ``two_approx_diameter(lbg, budget,
...)``, ...); this module wraps them behind a uniform adapter protocol
so the sweep runner can drive any of them from an
:class:`~repro.experiments.spec.ExperimentSpec`:

- an adapter is a callable ``(ctx: RunContext) -> Mapping[str, Any]``
  returning the algorithm-specific JSON-native output payload;
- :func:`register_algorithm` installs it under a public name
  (third-party code can register its own);
- the :class:`RunContext` supplies the topology, the shared
  :class:`~repro.radio.energy.EnergyLedger`, lazily-built LB-level and
  slot-level network views, the derived algorithm random stream, and
  the spec's parameters — so adapters stay a few lines each.

All costs (LB and slot currencies alike) land on the one shared ledger,
which the runner reads into the uniform ``RunResult`` metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..clustering.distributed import charged_mpx
from ..core.parameters import BFSParameters
from ..core.recursive_bfs import RecursiveBFS
from ..core.simple_bfs import decay_bfs, decay_bfs_mega, trivial_bfs
from ..diameter.exact import exact_diameter
from ..diameter.three_halves import three_halves_diameter
from ..diameter.two_approx import two_approx_diameter
from ..errors import ConfigurationError
from ..primitives.lb_graph import PhysicalLBGraph
from ..primitives.leader_election import (
    ChargedLeaderElection,
    FloodingLeaderElection,
)
from ..radio.batch_engine import MegaBatchedNetwork, ReplicaBatchedNetwork
from ..radio.dynamic import build_dynamic_topology
from ..radio.energy import EnergyLedger
from ..radio.engine import make_network
from ..radio.faults import FaultCounters
from ..radio.invariants import InvariantMonitor
from ..radio.network import SlotEngineBase
from ..rng import spawn_streams
from .results import encode_labels, labels_digest
from .spec import ExperimentSpec

#: Adapter protocol: consume a run context, return the output payload.
AlgorithmAdapter = Callable[["RunContext"], Mapping[str, Any]]

_ALGORITHMS: Dict[str, AlgorithmAdapter] = {}


def register_algorithm(
    name: str, overwrite: bool = False
) -> Callable[[AlgorithmAdapter], AlgorithmAdapter]:
    """Decorator registering an adapter under a public algorithm name.

    >>> @register_algorithm("my_bfs")
    ... def _run_my_bfs(ctx):
    ...     labels = my_bfs(ctx.lbg(), ctx.params.get("sources", [0]))
    ...     return {"labels": encode_labels(labels)}
    """
    if not name:
        raise ConfigurationError("algorithm name must be non-empty")

    def decorator(adapter: AlgorithmAdapter) -> AlgorithmAdapter:
        if not overwrite and name in _ALGORITHMS:
            raise ConfigurationError(f"algorithm {name!r} is already registered")
        _ALGORITHMS[name] = adapter
        return adapter

    return decorator


def algorithm_names() -> Tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(_ALGORITHMS))


def get_algorithm(name: str) -> AlgorithmAdapter:
    """Look up an adapter, failing loudly for unknown names."""
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; registered: {', '.join(algorithm_names())}"
        ) from None


@dataclass
class RunContext:
    """Everything an adapter needs to execute one spec.

    The LB-level view (:meth:`lbg`) and the slot-level view
    (:meth:`network`) are built lazily and share one
    :class:`EnergyLedger`, so whichever layers an algorithm touches,
    the runner reads a single unified cost report afterwards.
    """

    spec: ExperimentSpec
    graph: nx.Graph
    ledger: EnergyLedger
    #: Online invariant-checking period for the slot-level view
    #: (the sweep policy's ``invariant_sample``; ``None``: off).
    invariant_sample: Optional[int] = None
    params: Dict[str, Any] = field(init=False)
    rng: np.random.Generator = field(init=False)
    #: Set by adapters (via :meth:`mark_partial`) when the algorithm
    #: detectably failed to complete its contract — the runner turns it
    #: into the result's ``"partial"`` status.
    partial: bool = field(default=False, init=False)
    _wiring: np.random.Generator = field(init=False)
    _slot_faults: np.random.Generator = field(init=False)
    _lb_faults: np.random.Generator = field(init=False)
    _dynamic_stream: np.random.Generator = field(init=False)
    #: The monitor the runner reads invariant counters from, attached
    #: by :meth:`network` when ``invariant_sample`` is set.
    invariant_monitor: Optional[InvariantMonitor] = field(
        default=None, init=False
    )
    _lbg: Optional[PhysicalLBGraph] = field(default=None, init=False)
    _network: Optional[SlotEngineBase] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.params = self.spec.params()
        (_, self._wiring, self.rng, fault_stream,
         self._dynamic_stream) = self.spec.seed_streams()
        # The slot-level and LB-level views each get their own child of
        # the spec's fault stream: sharing one generator would make the
        # fault pattern depend on how an adapter interleaves the two
        # executors, breaking the per-view determinism contract.
        self._slot_faults, self._lb_faults = spawn_streams(fault_stream, 2)

    def lbg(self) -> PhysicalLBGraph:
        """The Local-Broadcast view of the topology (built once).

        Unavailable for dynamic-membership specs: the LB abstraction
        has no slot clock for a join/leave schedule to index, so only
        slot-tier algorithms can run under churn.
        """
        if self.spec.dynamic is not None:
            raise ConfigurationError(
                "dynamic membership is a slot-tier feature; algorithm "
                f"{self.spec.algorithm!r} runs on the Local-Broadcast "
                "view, which has no slot clock to index the schedule"
            )
        if self._lbg is None:
            self._lbg = PhysicalLBGraph(
                self.graph, ledger=self.ledger, seed=self._wiring,
                faults=self.spec.fault_model, fault_seed=self._lb_faults,
            )
        return self._lbg

    def network(self) -> SlotEngineBase:
        """The slot-level view on the spec's engine tier (built once)."""
        if self._network is None:
            kwargs: Dict[str, Any] = {}
            if self.spec.sinr is not None:
                kwargs["sinr"] = self.spec.sinr
            graph = self.graph
            dynamic = build_dynamic_topology(
                self.spec.dynamic, self.graph, seed=self._dynamic_stream
            )
            if dynamic is not None:
                # The engine owns (and mutates) its own copy of the
                # initial graph — late joiners detached — while
                # ctx.graph keeps the scenario's full topology for the
                # runner's n/edges metrics.
                graph = dynamic.initial_graph()
                kwargs["dynamic"] = dynamic
            network = make_network(
                graph,
                engine=self.spec.engine,
                collision_model=self.spec.collision(),
                size_policy=self.spec.size_policy(),
                ledger=self.ledger,
                faults=self.spec.fault_model,
                fault_seed=self._slot_faults,
                **kwargs,
            )
            if self.invariant_sample is not None:
                self.invariant_monitor = InvariantMonitor(
                    period=self.invariant_sample
                )
                network.invariant_monitor = self.invariant_monitor
            self._network = network
        return self._network

    def mark_partial(self) -> None:
        """Record that the run completed only partially (e.g. a fault
        model left some vertices unsettled)."""
        self.partial = True

    def fault_totals(self) -> FaultCounters:
        """The run's combined fault/delivery tally.

        Merges the counters of whichever executors the adapter actually
        built (slot-level network and/or LB view) — both engines and
        both execution modes produce identical tallies for one spec.
        Counters are per-executor: a run that touches both views under a
        churn schedule counts each view's crash events separately (each
        executor applies the schedule to its own device population).
        """
        totals = FaultCounters()
        if self._network is not None:
            totals.merge(self._network.fault_counters)
        if self._lbg is not None:
            totals.merge(self._lbg.fault_counters)
        return totals

    # Convenience for adapters ----------------------------------------
    def sources(self) -> list:
        """The ``sources`` parameter (default: vertex 0)."""
        return list(self.params.get("sources", [0]))

    def depth_budget(self) -> int:
        """The ``depth_budget`` parameter (default: the vertex count,
        a safe upper bound on any distance)."""
        return int(self.params.get("depth_budget", self.graph.number_of_nodes()))

    def bfs_parameters(self) -> Optional[BFSParameters]:
        """Build :class:`BFSParameters` from ``beta``/``max_depth``.

        Returns ``None`` when neither is given, letting the wrapped
        algorithm fall back to its own paper-formula defaults.
        """
        if "beta" not in self.params and "max_depth" not in self.params:
            return None
        beta = float(self.params.get("beta", 0.25))
        return BFSParameters(beta=beta, max_depth=int(self.params.get("max_depth", 1)))


# ---------------------------------------------------------------------------
# Built-in adapters
# ---------------------------------------------------------------------------

def _labels_output(ctx: RunContext, labels: Mapping[Any, float]) -> Dict[str, Any]:
    """The common BFS output block: labels + summary statistics.

    With the ``record_labels: false`` parameter the full label list is
    replaced by its SHA-256 digest — differential comparisons (e.g. the
    engine-tier benchmark) stay exact while committed ``BENCH_*.json``
    records stay small.
    """
    finite = [d for d in labels.values() if math.isfinite(d)]
    encoded = encode_labels(labels)
    # Scenario graphs are connected, so an unsettled vertex means the
    # run (fault injection or membership churn, usually) left the BFS
    # contract unmet — surfaced as a "partial" status plus an explicit
    # unreached count rather than a silent "ok".
    unreached = ctx.graph.number_of_nodes() - len(finite)
    if unreached > 0:
        ctx.mark_partial()
    out: Dict[str, Any] = {
        "settled": len(finite),
        "eccentricity": int(max(finite)) if finite else 0,
    }
    # Emitted only when nonzero, so complete runs keep their historic
    # canonical bytes.
    if unreached > 0:
        out["unreached"] = unreached
    if ctx.params.get("record_labels", True):
        out["labels"] = encoded
    else:
        out["labels_sha256"] = labels_digest(encoded)
    return out


@register_algorithm("trivial_bfs")
def _run_trivial_bfs(ctx: RunContext) -> Dict[str, Any]:
    """LB-unit wavefront BFS — the Theta(D)-energy baseline."""
    labels = trivial_bfs(ctx.lbg(), ctx.sources(), ctx.depth_budget())
    return _labels_output(ctx, labels)


@register_algorithm("decay_bfs")
def _run_decay_bfs(ctx: RunContext) -> Dict[str, Any]:
    """Slot-level layered BFS via Decay, on the spec's engine tier."""
    net = ctx.network()
    labels = decay_bfs(
        net,
        ctx.sources(),
        ctx.depth_budget(),
        failure_probability=float(ctx.params.get("failure_probability", 1e-3)),
        seed=ctx.rng,
        tx_power=int(ctx.params.get("tx_power", 0)),
    )
    out = _labels_output(ctx, labels)
    out["slots"] = net.slot
    return out


def _run_decay_bfs_lanes(
    members: Sequence[Sequence[RunContext]],
) -> List[List[Tuple[Dict[str, Any], FaultCounters]]]:
    """Lane-fused ``decay_bfs``: one or more cells, one gather per slot.

    ``members[m]`` holds member cell ``m``'s replica contexts: one
    shared topology (only seed-deterministic families batch), each
    replica with its own ledger and derived streams.  Builds one
    :class:`~repro.radio.batch_engine.ReplicaBatchedNetwork` per member
    (each lane wired to its context's ledger and slot fault stream),
    fuses them into one
    :class:`~repro.radio.batch_engine.MegaBatchedNetwork`, and runs
    :func:`repro.core.simple_bfs.decay_bfs_mega`; every member keeps
    its own sources, depth budget, failure probability, and Decay
    parameters.  Returns, per member and replica, the payload and the
    lane's fault counters, each byte-identical to the replica's serial
    run.
    """
    member_nets = []
    for group in members:
        spec = group[0].spec
        member_nets.append(ReplicaBatchedNetwork(
            group[0].graph,
            replicas=len(group),
            collision_model=spec.collision(),
            size_policy=spec.size_policy(),
            ledgers=[ctx.ledger for ctx in group],
            faults=spec.fault_model,
            fault_seeds=[ctx._slot_faults for ctx in group],
            sinr=spec.sinr,
        ))
    net = MegaBatchedNetwork(member_nets)
    firsts = [group[0] for group in members]
    labels_by_lane = decay_bfs_mega(
        net,
        sources={m: ctx.sources() for m, ctx in enumerate(firsts)},
        depth_budgets={m: ctx.depth_budget() for m, ctx in enumerate(firsts)},
        failure_probabilities={
            m: float(ctx.params.get("failure_probability", 1e-3))
            for m, ctx in enumerate(firsts)
        },
        seeds={
            (m, r): ctx.rng
            for m, group in enumerate(members)
            for r, ctx in enumerate(group)
        },
        tx_power={
            m: int(ctx.params.get("tx_power", 0))
            for m, ctx in enumerate(firsts)
        },
    )
    outputs: List[List[Tuple[Dict[str, Any], FaultCounters]]] = []
    for m, (group, member_net) in enumerate(zip(members, member_nets)):
        member_outputs = []
        for r, ctx in enumerate(group):
            lane = member_net.lane(r)
            out = _labels_output(ctx, labels_by_lane[(m, r)])
            out["slots"] = lane.slot
            member_outputs.append((out, lane.fault_counters))
        outputs.append(member_outputs)
    return outputs


#: The lane-fused runner of each algorithm whose cells may share one
#: lane-batched engine run (``runner.spec_is_batchable``).
LANE_RUNNERS = {"decay_bfs": _run_decay_bfs_lanes}


@register_algorithm("recursive_bfs")
def _run_recursive_bfs(ctx: RunContext) -> Dict[str, Any]:
    """The paper's Recursive-BFS (Theorem 4.1), with Claims 1-2 stats."""
    bfs = RecursiveBFS(ctx.bfs_parameters() or BFSParameters.for_instance(
        n=max(2, ctx.graph.number_of_nodes()), depth_budget=ctx.depth_budget()
    ), seed=ctx.rng)
    labels = bfs.compute(ctx.lbg(), ctx.sources(), ctx.depth_budget())
    out = _labels_output(ctx, labels)
    stats = bfs.stats
    out["stage_count"] = stats.stage_count
    out["max_awake_stages"] = stats.max_awake_stages()
    out["max_special_updates"] = stats.max_special_updates()
    out["max_wavefront_lb"] = max(stats.wavefront_lb.values(), default=0)
    return out


@register_algorithm("leader_election")
def _run_leader_election(ctx: RunContext) -> Dict[str, Any]:
    """Leader election: charged [10] envelope or honest flooding."""
    method = str(ctx.params.get("method", "charged"))
    if method == "charged":
        result = ChargedLeaderElection().run(ctx.lbg(), seed=ctx.rng)
    elif method == "flooding":
        rounds = int(ctx.params.get("rounds", 2 * ctx.graph.number_of_nodes()))
        result = FloodingLeaderElection(rounds).run(ctx.lbg(), seed=ctx.rng)
    else:
        raise ConfigurationError(
            f"leader_election method must be 'charged' or 'flooding', got {method!r}"
        )
    return {"leader": result.leader, "rounds": result.rounds, "method": method}


def _diameter_budget(ctx: RunContext) -> int:
    """Depth budget for the diameter algorithms.

    Defaults to ``diam(G) + 2`` (computed simulator-side, as the
    examples always did); callers running the doubling protocol pass an
    explicit ``depth_budget`` instead.
    """
    if "depth_budget" in ctx.params:
        return int(ctx.params["depth_budget"])
    return nx.diameter(ctx.graph, usebounds=True) + 2


def _estimate_output(estimate, budget: int) -> Dict[str, Any]:
    return {
        "estimate": estimate.estimate,
        "lower": estimate.lower,
        "upper": estimate.upper,
        "leader": estimate.leader,
        "depth_budget": budget,
    }


@register_algorithm("two_approx_diameter")
def _run_two_approx(ctx: RunContext) -> Dict[str, Any]:
    """Theorem 5.3: leader eccentricity, ``diam/2 <= D' <= diam``."""
    budget = _diameter_budget(ctx)
    est = two_approx_diameter(
        ctx.lbg(), budget, params=ctx.bfs_parameters(), seed=ctx.rng
    )
    return _estimate_output(est, budget)


@register_algorithm("three_halves_diameter")
def _run_three_halves(ctx: RunContext) -> Dict[str, Any]:
    """Theorem 5.4: nearly-3/2 approximation via sampled BFS."""
    budget = _diameter_budget(ctx)
    est = three_halves_diameter(
        ctx.lbg(),
        budget,
        params=ctx.bfs_parameters(),
        seed=ctx.rng,
        sample_scale=float(ctx.params.get("sample_scale", 1.0)),
    )
    return _estimate_output(est, budget)


@register_algorithm("exact_diameter")
def _run_exact_diameter(ctx: RunContext) -> Dict[str, Any]:
    """All-sources BFS — the Omega(n)-energy exact baseline."""
    budget = _diameter_budget(ctx)
    est = exact_diameter(
        ctx.lbg(),
        budget,
        params=ctx.bfs_parameters(),
        seed=ctx.rng,
        use_recursive=bool(ctx.params.get("use_recursive", False)),
    )
    return _estimate_output(est, budget)


@register_algorithm("mpx_clustering")
def _run_mpx_clustering(ctx: RunContext) -> Dict[str, Any]:
    """MPX clustering with the Lemma 2.5 charged cost envelope."""
    beta = float(ctx.params.get("beta", 0.25))
    clustering = charged_mpx(
        ctx.lbg(),
        beta,
        seed=ctx.rng,
        radius_multiplier=float(ctx.params.get("radius_multiplier", 4.0)),
    )
    sizes = [len(m) for m in clustering.members.values()]
    return {
        "clusters": len(sizes),
        "max_layer": clustering.max_layer,
        "rounds_used": clustering.rounds_used,
        "max_cluster_size": max(sizes, default=0),
        "mean_cluster_size": round(sum(sizes) / len(sizes), 6) if sizes else 0,
        "beta": beta,
    }


#: The built-in adapters that run on the Local-Broadcast tier: all but
#: ``decay_bfs``.  An adapter registered later, under a new name or over
#: a built-in one, is not listed: it may drive :meth:`RunContext.network`.
_LB_TIER_ADAPTERS = frozenset(
    adapter for name, adapter in _ALGORITHMS.items() if name != "decay_bfs"
)


def check_invariant_sample(
    specs: Sequence[ExperimentSpec], invariant_sample: Optional[int]
) -> None:
    """Refuse ``invariant_sample`` on a built-in Local-Broadcast-tier
    algorithm: it never builds a slot engine, so its results would
    silently carry no ``invariants`` block."""
    if invariant_sample is None:
        return
    for spec in specs:
        if _ALGORITHMS.get(spec.algorithm) in _LB_TIER_ADAPTERS:
            raise ConfigurationError(
                f"invariant_sample needs a slot engine; {spec.algorithm!r} "
                "runs on the Local-Broadcast tier, which has no slot clock"
            )
