"""The ``LBGraph`` abstraction: graphs that speak Local-Broadcast.

The paper's Section 4.3 measures time and energy *in units of
Local-Broadcast calls* ("We use a call to Local-Broadcast as a unit of
measurement of both time and energy"), converting to slots only at the
end via Lemma 2.4.  Everything above the Decay layer in this library is
therefore written against this interface:

- :class:`LBGraph` — an abstract graph whose vertices can execute one
  ``local_broadcast(senders, receivers)`` round;
- :class:`PhysicalLBGraph` — vertices are the devices of a real radio
  network; one call charges one LB participation to every participant
  on a shared :class:`EnergyLedger` and delivers per the Local-Broadcast
  specification (each receiver with a sending neighbor hears one
  arbitrary neighboring message, with optional failure injection);
- ``repro.clustering.simulation.ClusterLBGraph`` — vertices are
  *clusters* of a parent ``LBGraph`` and each call is simulated through
  Down-cast / physical LB / Up-cast (Lemma 3.2), recursively stackable.

This exactly mirrors how the paper runs Recursive-BFS "on" the cluster
graph while all costs land on physical devices.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Set

import networkx as nx

from ..errors import ConfigurationError
from ..radio.energy import EnergyLedger
from ..radio.faults import FaultCounters, FaultModel, FaultRuntime
from ..radio.network import validate_topology
from ..radio.topology import degrees
from ..rng import SeedLike, make_rng


class LBGraph(abc.ABC):
    """A graph whose vertices can run Local-Broadcast rounds.

    Implementations must charge all costs to the shared
    :class:`EnergyLedger` keyed by *physical* device, so that stacked
    simulations attribute energy the way the paper does.
    """

    @property
    @abc.abstractmethod
    def ledger(self) -> EnergyLedger:
        """The shared ledger receiving all charges."""

    @property
    @abc.abstractmethod
    def n_global(self) -> int:
        """The global ``n`` (size bound of the *physical* network).

        All log-factors in the paper are in terms of the physical ``n``,
        even inside recursive simulations.
        """

    @abc.abstractmethod
    def vertices(self) -> Set[Hashable]:
        """The vertex set of this (possibly virtual) graph."""

    @abc.abstractmethod
    def local_broadcast(
        self,
        messages: Mapping[Hashable, Any],
        receivers: Iterable[Hashable],
    ) -> Dict[Hashable, Any]:
        """One Local-Broadcast round.

        ``messages`` maps each sender to its payload; every receiver
        with at least one sending neighbor receives one such payload
        (w.h.p. semantics).  Returns ``{receiver: payload}`` for
        receivers that heard something.  Charges energy and advances
        the LB-round clock.
        """

    @abc.abstractmethod
    def degree_bound(self) -> int:
        """An upper bound on max degree (the Delta of Lemma 2.4)."""

    @abc.abstractmethod
    def as_nx_graph(self) -> nx.Graph:
        """Simulator-side ground-truth topology of this (virtual) graph.

        Devices never see this; it is used by the simulation machinery
        itself (fast-mode casts, clustering shortcuts with charged
        costs) and by tests/benchmarks for verification.
        """

    @abc.abstractmethod
    def charge_virtual(self, vertex: Hashable, sender: int = 0, receiver: int = 0) -> None:
        """Charge LB participations to a (possibly virtual) vertex.

        On a physical graph this charges the device directly; on a
        cluster graph one virtual participation expands into the
        Lemma 3.2 per-member cost profile of the parent graph, so that
        all energy ultimately lands on physical devices no matter how
        deep the simulation stack is.
        """

    @abc.abstractmethod
    def advance_rounds(self, rounds: int) -> None:
        """Advance the LB-round clock by ``rounds`` of *this* graph.

        On a cluster graph each simulated round expands into the
        parent-graph rounds one simulated Local-Broadcast costs.
        """

    # Convenience -------------------------------------------------------
    def vertex_count(self) -> int:
        """Number of vertices of this graph."""
        return len(self.vertices())


class PhysicalLBGraph(LBGraph):
    """LBGraph over a concrete topology: vertices are physical devices.

    Parameters
    ----------
    graph:
        The communication topology.
    ledger:
        Shared energy ledger (created fresh if omitted).
    failure_probability:
        Per-(receiver, round) probability that the Local-Broadcast
        guarantee fails for that receiver, emulating the Lemma 2.4
        ``1 - f`` guarantee.  ``0.0`` (default) is the w.h.p.
        idealization used for deterministic testing; benchmarks may
        inject the true ``1/poly(n)`` rate.
    seed:
        Randomness for delivery arbitration and failure injection.
    faults:
        Optional :class:`~repro.radio.faults.FaultModel`; the LB tier
        interprets one ``local_broadcast`` call as one time unit, so a
        layer's "slot" knobs (jammer duty cycle, churn event slots)
        address LB rounds here.  Dead vertices neither send, receive,
        nor get charged; dropped senders are charged but their message
        is lost; jammed receivers are charged but hear nothing.
    fault_seed:
        Dedicated random stream for the fault stack (kept separate from
        ``seed`` so attaching faults never perturbs the arbitration
        randomness of the fault-free run).
    """

    def __init__(
        self,
        graph: nx.Graph,
        ledger: Optional[EnergyLedger] = None,
        failure_probability: float = 0.0,
        seed: SeedLike = None,
        n_global: Optional[int] = None,
        faults: Optional[FaultModel] = None,
        fault_seed: SeedLike = None,
    ) -> None:
        # Undirected, as the sender-side delivery below relies on.
        validate_topology(graph)
        if not (0.0 <= failure_probability < 1.0):
            raise ConfigurationError(
                f"failure_probability must be in [0, 1), got {failure_probability}"
            )
        self.graph = graph
        self._ledger = ledger if ledger is not None else EnergyLedger()
        self.failure_probability = failure_probability
        self.rng = make_rng(seed)
        self._n_global = n_global if n_global is not None else graph.number_of_nodes()
        self._vertices: Set[Hashable] = set(graph.nodes)
        self._adjacency: Dict[Hashable, List[Hashable]] = {
            v: list(graph.neighbors(v)) for v in graph.nodes
        }
        self.fault_counters = FaultCounters()
        self._fault_runtime: Optional[FaultRuntime] = FaultRuntime.build(
            faults, graph, seed=fault_seed, counters=self.fault_counters
        )
        self._lb_round = 0

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> EnergyLedger:
        return self._ledger

    @property
    def n_global(self) -> int:
        return self._n_global

    def vertices(self) -> Set[Hashable]:
        return self._vertices

    def degree_bound(self) -> int:
        return max(degrees(self.graph).values(), default=0)

    def neighbors(self, v: Hashable) -> List[Hashable]:
        """Adjacency access for ground-truth checks (not used by devices)."""
        return self._adjacency[v]

    def as_nx_graph(self) -> nx.Graph:
        return self.graph

    def charge_virtual(self, vertex: Hashable, sender: int = 0, receiver: int = 0) -> None:
        self._ledger.charge_participation(vertex, sender=sender, receiver=receiver)

    def advance_rounds(self, rounds: int) -> None:
        self._ledger.advance_lb_rounds(rounds)

    # ------------------------------------------------------------------
    def local_broadcast(
        self,
        messages: Mapping[Hashable, Any],
        receivers: Iterable[Hashable],
    ) -> Dict[Hashable, Any]:
        receiver_list = [v for v in receivers]
        sender_set = set(messages)
        receiver_set = set(receiver_list)
        unknown = (sender_set | receiver_set) - self._vertices
        if unknown:
            raise ConfigurationError(
                f"local_broadcast participants not in graph: {sorted(map(repr, unknown))[:5]}"
            )
        overlap = sender_set & receiver_set
        if overlap:
            raise ConfigurationError(
                f"senders and receivers must be disjoint (Local-Broadcast spec); "
                f"overlap size {len(overlap)}"
            )

        counters = self.fault_counters
        jammed: frozenset = frozenset()
        if self._fault_runtime is not None:
            plan = self._fault_runtime.plan(self._lb_round)
            jammed = plan.jammed
            if plan.dead:
                # Dead devices participate in nothing: no energy, no
                # messages out, no reception.
                sender_set = {u for u in sender_set if u not in plan.dead}
                receiver_list = [v for v in receiver_list if v not in plan.dead]
            if plan.dropped:
                # Dropped senders are charged below (they participated)
                # but their message never reaches the channel.
                lost = {u for u in sender_set if u in plan.dropped}
                counters.dropped += len(lost)
                heard_from = sender_set - lost
            else:
                heard_from = sender_set
        else:
            heard_from = sender_set
        self._lb_round += 1

        self._ledger.charge_lb(sender_set, receiver_list)

        # Sender side first: only a receiver next to a heard sender can
        # hear anything, so only those build a (then non-empty) candidate
        # list.  The receiver loop keeps its order and its draws.
        adjacency = self._adjacency
        in_range: Set[Hashable] = set()
        for u in heard_from:
            in_range.update(adjacency[u])
        delivered: Dict[Hashable, Any] = {}
        for v in receiver_list:
            if v in jammed:
                counters.jammed += 1
                continue
            if v not in in_range:
                continue
            sending_neighbors = [u for u in adjacency[v] if u in heard_from]
            if self.failure_probability > 0.0 and (
                self.rng.random() < self.failure_probability
            ):
                continue
            # The LB guarantee: "v receives some message m_u from at
            # least one u in N(v) ∩ S" — which one is adversarial /
            # protocol-dependent; we pick uniformly at random.
            chosen = sending_neighbors[int(self.rng.integers(len(sending_neighbors)))]
            delivered[v] = messages[chosen]
            counters.delivered += 1
        return delivered
