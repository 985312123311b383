"""Miller–Peng–Xu clustering, centralized reference (paper Section 2).

A cluster forms at each vertex ``u`` at time ``-delta_u`` (here:
integer round ``start_u``) and spreads one hop per round; every vertex
is absorbed by the first cluster to reach it (ties broken arbitrarily —
here uniformly at random, matching the arbitrary single delivery of the
distributed Local-Broadcast implementation).

This centralized routine is the ground truth against which the
distributed implementation (``repro.clustering.distributed``) is
validated, and the fast path used by the charged-cost clustering
shortcut (:func:`repro.clustering.distributed.charged_mpx`).

The output is a function of the seed *and of the order of the random
draws*: every joining vertex draws one ``rng.integers`` to pick its
parent, in the iteration order of the ``unclustered`` set.  That set is
built once from ``graph.nodes`` and only ever shrinks (a set never
rehashes on ``discard``), so its order is the build order filtered.
The round loop must keep iterating that very set and drawing for
exactly the vertices with a clustered neighbour: iterating another
container, or skipping or adding a draw, reshuffles every later pick
and changes every clustering, ledger and document built on it.  The
speed comes from elsewhere — start-time buckets (no per-round scan for
centers) and a per-vertex count of clustered neighbours (only vertices
with one build a candidate list)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, make_rng
from .shifts import ShiftParameters, Shifts


@dataclass
class Clustering:
    """The result of MPX clustering: a partition into low-radius clusters.

    Cluster identifiers are the center vertices.  ``layer_of[v]`` is the
    BFS layer of ``v`` inside its cluster (0 at the center), the ``L``
    labels of Lemma 2.5.
    """

    beta: float
    n_global: int
    center_of: Dict[Hashable, Hashable]
    layer_of: Dict[Hashable, int]
    members: Dict[Hashable, Set[Hashable]]
    shifts: Shifts
    rounds_used: int

    @property
    def inv_beta(self) -> int:
        """Integer ``1/beta``."""
        return round(1.0 / self.beta)

    def clusters(self) -> Set[Hashable]:
        """All cluster identifiers (center vertices)."""
        return set(self.members)

    @property
    def max_layer(self) -> int:
        """Maximum in-cluster BFS layer (= max cluster radius)."""
        return max(self.layer_of.values(), default=0)

    def cluster_radius(self, cluster: Hashable) -> int:
        """Radius of one cluster (max member layer)."""
        return max((self.layer_of[v] for v in self.members[cluster]), default=0)

    def quotient_graph(self, base: nx.Graph) -> nx.Graph:
        """The cluster graph ``G* = cluster(G, beta)`` as an nx.Graph.

        ``V* = clusters``; an edge joins two clusters iff some base edge
        crosses between them (paper Section 2.1).
        """
        quotient = nx.Graph()
        quotient.add_nodes_from(self.members)
        for u, v in base.edges:
            cu, cv = self.center_of[u], self.center_of[v]
            if cu != cv:
                quotient.add_edge(cu, cv)
        return quotient

    def cut_edges(self, base: nx.Graph) -> List[Tuple[Hashable, Hashable]]:
        """Base edges whose endpoints lie in distinct clusters."""
        return [
            (u, v)
            for u, v in base.edges
            if self.center_of[u] != self.center_of[v]
        ]

    def cut_fraction(self, base: nx.Graph) -> float:
        """Fraction of base edges cut by the partition (``O(beta)`` w.h.p.)."""
        m = base.number_of_edges()
        if m == 0:
            return 0.0
        return len(self.cut_edges(base)) / m

    def validate(self, base: nx.Graph) -> None:
        """Sanity-check the partition invariants; raise on violation.

        - every vertex belongs to exactly one cluster;
        - the center has layer 0 and each layer-``i`` vertex (i > 0) has
          a neighbor in the same cluster at layer ``i - 1`` (Lemma 2.5's
          label property);
        - clusters induce connected subgraphs.
        """
        if set(self.center_of) != set(base.nodes):
            raise SimulationError("clustering does not cover the vertex set")
        for cluster, members in self.members.items():
            if self.center_of.get(cluster) != cluster:
                raise SimulationError(f"center {cluster!r} not in its own cluster")
            if self.layer_of[cluster] != 0:
                raise SimulationError(f"center {cluster!r} has nonzero layer")
            for v in members:
                if self.center_of[v] != cluster:
                    raise SimulationError("members map inconsistent with center_of")
                layer = self.layer_of[v]
                if layer > 0:
                    ok = any(
                        self.center_of.get(u) == cluster
                        and self.layer_of.get(u) == layer - 1
                        for u in base.neighbors(v)
                    )
                    if not ok:
                        raise SimulationError(
                            f"vertex {v!r} at layer {layer} has no parent layer"
                        )


def mpx_clustering(
    graph: nx.Graph,
    beta: float,
    seed: SeedLike = None,
    n_global: Optional[int] = None,
    radius_multiplier: float = 4.0,
    shifts: Optional[Shifts] = None,
) -> Clustering:
    """Compute ``cluster(G, beta)`` centrally (synchronous-round semantics).

    Round ``i`` (for ``i = 1..T``): unclustered vertices with
    ``start_v = i`` become centers at layer 0; then every unclustered
    vertex adjacent to a clustered vertex joins one such neighbor's
    cluster (uniformly at random among clustered neighbors) at that
    neighbor's layer + 1.  This matches the distributed construction of
    Lemma 2.5 exactly, so the distributed implementation can be
    validated against it distributionally.
    """
    if graph.number_of_nodes() == 0:
        raise ConfigurationError("cannot cluster an empty graph")
    n = n_global if n_global is not None else graph.number_of_nodes()
    params = ShiftParameters(beta=beta, n=max(2, n), radius_multiplier=radius_multiplier)
    rng = make_rng(seed)
    if shifts is None:
        shifts = Shifts.sample(graph.nodes, params, seed=rng)
    else:
        _check_shifts(shifts, params, graph)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    unclustered: Set[Hashable] = set(graph.nodes)
    horizon = params.horizon
    adjacency = {v: list(nbrs) for v, nbrs in graph.adjacency()}
    centers_by_round = shifts.centers_by_round(unclustered)
    # Clustered neighbours of each unclustered vertex.
    clustered_degree = dict.fromkeys(unclustered, 0)

    def settle(v: Hashable, cluster: Hashable, layer: int) -> None:
        center_of[v] = cluster
        layer_of[v] = layer
        unclustered.discard(v)
        for u in adjacency[v]:
            if u in unclustered:
                clustered_degree[u] += 1

    rounds_used = 0
    for round_index in range(1, horizon + 1):
        if not unclustered:
            break
        rounds_used = round_index
        # New centers.
        for v in centers_by_round.get(round_index, ()):
            if v in unclustered:
                members[v] = {v}
                settle(v, v, 0)
        if not center_of:
            continue  # nothing can grow before the first center
        # One hop of growth: each unclustered vertex with clustered
        # neighbors joins one uniformly at random (the arbitrary single
        # delivery of Local-Broadcast).
        joiners: List[Tuple[Hashable, Hashable]] = []
        for v in unclustered:
            if clustered_degree[v]:
                clustered_neighbors = [u for u in adjacency[v] if u in center_of]
                pick = clustered_neighbors[int(rng.integers(len(clustered_neighbors)))]
                joiners.append((v, pick))
        for v, parent in joiners:
            cluster = center_of[parent]
            members[cluster].add(v)
            settle(v, cluster, layer_of[parent] + 1)

    if unclustered:
        # Every vertex starts its own cluster by round start_v <= T, so
        # this can only happen through a bug.
        raise SimulationError(
            f"{len(unclustered)} vertices left unclustered after {horizon} rounds"
        )

    return Clustering(
        beta=beta,
        n_global=n,
        center_of=center_of,
        layer_of=layer_of,
        members=members,
        shifts=shifts,
        rounds_used=rounds_used,
    )


def _check_shifts(shifts: Shifts, params: ShiftParameters, graph: nx.Graph) -> None:
    """Reject supplied shifts that do not fit this clustering, in one line."""
    if shifts.params != params:
        raise ConfigurationError(
            f"shifts were sampled under {shifts.params}, "
            f"but this clustering runs under {params}"
        )
    missing = [v for v in graph.nodes if v not in shifts.start_time]
    if missing:
        raise ConfigurationError(
            f"shifts give no start time for {len(missing)} of "
            f"{graph.number_of_nodes()} graph vertices (first: {missing[0]!r})"
        )
