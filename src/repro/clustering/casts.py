"""Up-cast and Down-cast inside clusters (paper Lemma 3.1).

``Down-cast``: cluster centers disseminate a message to all members.
``Up-cast``: members holding messages deliver one of them to the center.

Both run in ``D`` stages (one per cluster layer) of ``ell`` steps each;
in step ``j`` of a stage only clusters with ``j in S_C`` participate,
which by property (2) of the slot subsets gives every vertex an
interference-free step w.h.p.  Total time is ``ell * D`` Local-Broadcast
rounds; each vertex participates in ``O(|S_C|) = O(log n)`` of them.

:class:`CastEngine` does not execute the ``ell * D`` steps: it
propagates messages along intra-cluster layers directly (delivery
exactly as the w.h.p. analysis guarantees), charges every participant
the same ``O(|S_C|)`` participations and advances the round clock by the
full ``ell * D``.  Executing the step loop would only multiply
wall-clock cost without changing any reported measurement.  The literal
loop, one ``local_broadcast`` per step on the underlying ``LBGraph``,
is kept as a test oracle in ``tests/clustering/cast_oracle.py``, and
the agreement tests beside it pin the contract between the two: same
deliveries, same round accounting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Tuple

from ..errors import ConfigurationError
from ..primitives.lb_graph import LBGraph
from .mpx import Clustering
from .slots import SlotAssignment


class CastEngine:
    """Runs Up-casts and Down-casts for one clustering over an LBGraph."""

    def __init__(
        self,
        lbg: LBGraph,
        clustering: Clustering,
        slots: SlotAssignment,
    ) -> None:
        self.lbg = lbg
        self.clustering = clustering
        self.slots = slots
        base = lbg.as_nx_graph()
        # Intra-cluster parent adjacency by layer, precomputed once.
        self._up_neighbors: Dict[Hashable, List[Hashable]] = {}
        center_of = clustering.center_of
        layer_of = clustering.layer_of
        for v in base.nodes:
            ups: List[Hashable] = []
            for u in base.neighbors(v):
                if center_of[u] != center_of[v]:
                    continue
                if layer_of[u] == layer_of[v] - 1:
                    ups.append(u)
            self._up_neighbors[v] = ups

    # ------------------------------------------------------------------
    def _cluster_depths(self, clusters: Iterable[Hashable]) -> Dict[Hashable, int]:
        return {c: self.clustering.cluster_radius(c) for c in clusters}

    def _layer_members(
        self, clusters: Iterable[Hashable]
    ) -> Dict[Tuple[Hashable, int], List[Hashable]]:
        """Members of each (cluster, layer), for participating clusters."""
        out: Dict[Tuple[Hashable, int], List[Hashable]] = defaultdict(list)
        for c in clusters:
            for v in self.clustering.members[c]:
                out[(c, self.clustering.layer_of[v])].append(v)
        return out

    # ------------------------------------------------------------------
    # Down-cast
    # ------------------------------------------------------------------
    def down_cast(self, payloads: Mapping[Hashable, Any]) -> Dict[Hashable, Any]:
        """Deliver each participating cluster's payload to all its members.

        ``payloads`` maps cluster id (= center vertex) to the message.
        Returns ``{vertex: payload}`` over members that received it.
        """
        participating = set(payloads)
        unknown = participating - self.clustering.clusters()
        if unknown:
            raise ConfigurationError(f"unknown clusters in down_cast: {unknown}")
        if not participating:
            return {}
        clustering = self.clustering
        depths = self._cluster_depths(payloads)
        global_depth = max(depths.values(), default=0)
        delivered: Dict[Hashable, Any] = {}
        for c, payload in payloads.items():
            size = len(self.slots.subset(c))
            depth = depths[c]
            for v in clustering.members[c]:
                layer = clustering.layer_of[v]
                delivered[v] = payload
                if layer > 0:
                    self.lbg.charge_virtual(v, receiver=size)
                if layer < depth:
                    self.lbg.charge_virtual(v, sender=size)
        self.lbg.advance_rounds(self.slots.ell * global_depth)
        return delivered

    # ------------------------------------------------------------------
    # Up-cast
    # ------------------------------------------------------------------
    def up_cast(
        self,
        messages: Mapping[Hashable, Any],
        participating: Iterable[Hashable],
    ) -> Dict[Hashable, Any]:
        """Deliver one member message per cluster to its center.

        ``messages`` maps vertices to held messages; ``participating``
        lists the clusters whose members take part (they must listen
        even if their cluster turns out to hold no message — that is
        the Up-cast energy profile).  Returns ``{cluster: message}``
        for clusters whose center received one.
        """
        clusters = set(participating)
        unknown = clusters - self.clustering.clusters()
        if unknown:
            raise ConfigurationError(f"unknown clusters in up_cast: {unknown}")
        relevant = {
            v: m
            for v, m in messages.items()
            if self.clustering.center_of[v] in clusters
        }
        if not clusters:
            return {}
        clustering = self.clustering
        depths = self._cluster_depths(clusters)
        global_depth = max(depths.values(), default=0)
        carrying: Dict[Hashable, Any] = dict(relevant)

        # Simulate stage-by-stage upward propagation along intra-cluster
        # layer adjacency, charging listens to everyone and sends only
        # to vertices that actually forward (matching the protocol).
        layer_members = self._layer_members(clusters)
        for c in clusters:
            size = len(self.slots.subset(c))
            depth = depths[c]
            for v in clustering.members[c]:
                if clustering.layer_of[v] < depth:
                    self.lbg.charge_virtual(v, receiver=size)
        for stage in range(global_depth, 0, -1):
            for c in clusters:
                if stage > depths[c]:
                    continue
                size = len(self.slots.subset(c))
                for v in layer_members.get((c, stage), ()):
                    if v not in carrying:
                        continue
                    self.lbg.charge_virtual(v, sender=size)
                    for u in self._up_neighbors[v]:
                        if u not in carrying:
                            carrying[u] = carrying[v]
        self.lbg.advance_rounds(self.slots.ell * global_depth)
        results: Dict[Hashable, Any] = {}
        for c in clusters:
            if c in carrying:
                results[c] = carrying[c]
        return results
