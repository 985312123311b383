"""Simulating Local-Broadcast on the cluster graph (paper Lemma 3.2).

``ClusterLBGraph`` makes the cluster graph ``G*`` *itself* an
:class:`~repro.primitives.lb_graph.LBGraph`: one ``local_broadcast`` on
``G*`` is realized by

1. a **Down-cast** in every sending cluster (members learn ``m_C``);
2. **one Local-Broadcast on the parent graph** with senders = members
   of sending clusters and receivers = members of receiving clusters;
3. an **Up-cast** in every receiving cluster (the center learns one
   received message).

All energy lands on physical devices through the shared ledger, each of
which participates in ``O(log n)`` parent Local-Broadcasts per simulated
call — exactly Lemma 3.2.  Because the result is again an ``LBGraph``,
the construction stacks: Recursive-BFS recurses by building a
``ClusterLBGraph`` over a ``ClusterLBGraph``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Mapping, Set

import networkx as nx

from ..errors import ConfigurationError
from ..primitives.lb_graph import LBGraph
from ..radio.energy import EnergyLedger
from ..rng import SeedLike
from .casts import CastEngine
from .mpx import Clustering
from .slots import SlotAssignment


class ClusterLBGraph(LBGraph):
    """``G*`` as a Local-Broadcast-capable virtual graph (Lemma 3.2)."""

    def __init__(
        self,
        parent: LBGraph,
        clustering: Clustering,
        slots: SlotAssignment,
    ) -> None:
        missing = set(clustering.center_of) ^ set(parent.vertices())
        if missing:
            raise ConfigurationError(
                f"clustering does not exactly cover the parent vertex set "
                f"({len(missing)} mismatched vertices)"
            )
        self.parent = parent
        self.clustering = clustering
        self.slots = slots
        self.cast = CastEngine(parent, clustering, slots)
        self._quotient = clustering.quotient_graph(parent.as_nx_graph())
        self._clusters: Set[Hashable] = set(clustering.members)

    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        clustering: Clustering,
        slots: SlotAssignment,
        engine: str = "reference",
        failure_probability: float = 1e-3,
        lb_seed: SeedLike = None,
    ) -> "ClusterLBGraph":
        """Build the full slot-level stack on a chosen engine backend.

        Convenience constructor threading the ``engine`` selection
        (``"reference"``/``"fast"``) down to the physical layer: the
        graph is wrapped in a slot-level network via
        :func:`~repro.radio.engine.make_network`, exposed as a
        :class:`~repro.primitives.decay_lb_graph.DecayLBGraph` parent,
        and the cluster simulation is stacked on top.  The underlying
        network is reachable as ``result.parent.network``.
        """
        from ..primitives.decay_lb_graph import DecayLBGraph
        from ..radio.engine import make_network

        network = make_network(graph, engine=engine)
        parent = DecayLBGraph(
            network, failure_probability=failure_probability, seed=lb_seed
        )
        return cls(parent, clustering, slots)

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> EnergyLedger:
        return self.parent.ledger

    @property
    def n_global(self) -> int:
        return self.parent.n_global

    def vertices(self) -> Set[Hashable]:
        return self._clusters

    def degree_bound(self) -> int:
        return max((d for _, d in self._quotient.degree), default=0)

    def as_nx_graph(self) -> nx.Graph:
        return self._quotient

    # ------------------------------------------------------------------
    def charge_virtual(self, vertex: Hashable, sender: int = 0, receiver: int = 0) -> None:
        """Expand a virtual cluster's LB participation to its members.

        One participation of cluster ``C`` in a simulated LB costs each
        member ``O(|S_C|)`` parent participations (Down-cast or Up-cast
        legs plus the middle Local-Broadcast) — the Lemma 3.2 profile.
        """
        count = sender + receiver
        if count <= 0:
            return
        size = len(self.slots.subset(vertex)) + 1
        for member in self.clustering.members[vertex]:
            self.parent.charge_virtual(
                member, sender=count * size, receiver=count * size
            )

    def advance_rounds(self, rounds: int) -> None:
        """One simulated G* round costs ``2 * ell * depth + 1`` parent rounds."""
        if rounds <= 0:
            return
        per_round = 2 * self.slots.ell * max(1, self.clustering.max_layer) + 1
        self.parent.advance_rounds(rounds * per_round)

    # ------------------------------------------------------------------
    def local_broadcast(
        self,
        messages: Mapping[Hashable, Any],
        receivers: Iterable[Hashable],
    ) -> Dict[Hashable, Any]:
        """Simulate one LB round on ``G*`` (Lemma 3.2's three steps)."""
        receiver_set = set(receivers)
        sender_set = set(messages)
        unknown = (sender_set | receiver_set) - self._clusters
        if unknown:
            raise ConfigurationError(
                f"unknown clusters in cluster-graph LB: {sorted(map(repr, unknown))[:5]}"
            )
        overlap = sender_set & receiver_set
        if overlap:
            raise ConfigurationError(
                "sending and receiving clusters must be disjoint "
                f"(overlap size {len(overlap)})"
            )

        # Step 1: Down-cast m_C to all members of each sending cluster.
        member_payload = self.cast.down_cast(dict(messages))

        # Step 2: one Local-Broadcast on the parent graph.
        parent_senders = {
            v: (self.clustering.center_of[v], payload)
            for v, payload in member_payload.items()
        }
        parent_receivers = [
            v for c in receiver_set for v in self.clustering.members[c]
        ]
        heard = self.parent.local_broadcast(parent_senders, parent_receivers)

        # Step 3: Up-cast one received message per receiving cluster.
        up_messages = {v: payload for v, (_, payload) in heard.items()}
        delivered = self.cast.up_cast(up_messages, receiver_set)
        return delivered
