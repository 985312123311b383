"""Tests for ClusterLBGraph: simulating LB on G* (Lemma 3.2)."""

import networkx as nx
import pytest

from repro.clustering import (
    ClusterLBGraph,
    SlotAssignment,
    mpx_clustering,
)
from repro.core import trivial_bfs
from repro.errors import ConfigurationError
from repro.primitives import PhysicalLBGraph
from repro.radio import topology


@pytest.fixture
def grid16():
    return topology.grid_graph(16, 16)


def _stack(graph, beta=1 / 2, seed=0):
    lbg = PhysicalLBGraph(graph, seed=seed)
    clustering = mpx_clustering(graph, beta, seed=seed, radius_multiplier=1.0)
    slots = SlotAssignment.sample(
        clustering.clusters(), beta, graph.number_of_nodes(), seed=seed + 1
    )
    star = ClusterLBGraph(lbg, clustering, slots)
    return lbg, clustering, star


class TestStructure:
    def test_vertices_are_clusters(self, grid16):
        lbg, clustering, star = _stack(grid16)
        assert star.vertices() == clustering.clusters()

    def test_quotient_matches_clustering(self, grid16):
        lbg, clustering, star = _stack(grid16)
        expected = clustering.quotient_graph(grid16)
        assert set(star.as_nx_graph().edges) == set(expected.edges)

    def test_shared_ledger_and_n(self, grid16):
        lbg, clustering, star = _stack(grid16)
        assert star.ledger is lbg.ledger
        assert star.n_global == grid16.number_of_nodes()

    def test_mismatched_clustering_rejected(self, grid16, path50):
        lbg = PhysicalLBGraph(grid16, seed=0)
        c_other = mpx_clustering(path50, 1 / 4, seed=0)
        slots = SlotAssignment.sample(c_other.clusters(), 1 / 4, 50, seed=0)
        with pytest.raises(ConfigurationError):
            ClusterLBGraph(lbg, c_other, slots)


class TestSimulatedLB:
    def test_adjacent_cluster_hears(self, grid16):
        lbg, clustering, star = _stack(grid16)
        q = star.as_nx_graph()
        # Pick any quotient edge (a, b): a sends, b must hear.
        a, b = next(iter(q.edges))
        out = star.local_broadcast({a: "hello"}, [b])
        assert out == {b: "hello"}

    def test_non_adjacent_cluster_does_not_hear(self, path50):
        lbg, clustering, star = _stack(path50, beta=1 / 2)
        q = star.as_nx_graph()
        clusters = sorted(star.vertices(), key=repr)
        far_pairs = [
            (a, b)
            for a in clusters
            for b in clusters
            if a != b and not q.has_edge(a, b)
        ]
        if far_pairs:
            a, b = far_pairs[0]
            out = star.local_broadcast({a: "m"}, [b])
            assert b not in out

    def test_energy_lands_on_physical_devices(self, grid16):
        """Lemma 3.2: each physical vertex pays O(log n) per simulated LB."""
        lbg, clustering, star = _stack(grid16)
        q = star.as_nx_graph()
        a, b = next(iter(q.edges))
        star.local_broadcast({a: "m"}, [b])
        # Every charged identity must be a physical vertex.
        for device in lbg.ledger.devices():
            assert device in grid16.nodes
        assert lbg.ledger.max_lb() > 0

    def test_disjoint_sets_enforced(self, grid16):
        lbg, clustering, star = _stack(grid16)
        c = sorted(star.vertices(), key=repr)[0]
        with pytest.raises(ConfigurationError):
            star.local_broadcast({c: "m"}, [c])

    def test_charge_virtual_expands_to_members(self, grid16):
        lbg, clustering, star = _stack(grid16)
        c = sorted(star.vertices(), key=repr)[0]
        star.charge_virtual(c, sender=1)
        for member in clustering.members[c]:
            assert lbg.ledger.device(member).lb_participations > 0

    def test_advance_rounds_expands(self, grid16):
        lbg, clustering, star = _stack(grid16)
        star.advance_rounds(1)
        assert lbg.ledger.lb_rounds >= 1


class TestRecursiveStacking:
    def test_bfs_on_cluster_graph_matches_quotient(self, grid16):
        """Trivial BFS run *through the simulation* equals nx distances."""
        lbg, clustering, star = _stack(grid16)
        q = star.as_nx_graph()
        source = sorted(star.vertices(), key=repr)[0]
        labels = trivial_bfs(star, [source], depth_budget=q.number_of_nodes())
        truth = nx.single_source_shortest_path_length(q, source)
        for c in star.vertices():
            assert labels[c] == truth[c]

    def test_double_stack(self, geo120):
        """A ClusterLBGraph over a ClusterLBGraph still works."""
        lbg, clustering, star = _stack(geo120, beta=1 / 2)
        c2 = mpx_clustering(
            star.as_nx_graph(),
            1 / 2,
            seed=9,
            n_global=geo120.number_of_nodes(),
            radius_multiplier=2.0,
        )
        slots2 = SlotAssignment.sample(
            c2.clusters(), 1 / 2, geo120.number_of_nodes(), seed=10
        )
        star2 = ClusterLBGraph(star, c2, slots2)
        q2 = star2.as_nx_graph()
        source = sorted(star2.vertices(), key=repr)[0]
        labels = trivial_bfs(star2, [source], depth_budget=q2.number_of_nodes())
        truth = nx.single_source_shortest_path_length(q2, source)
        for c in star2.vertices():
            assert labels[c] == truth[c]
        # Energy still lands on physical devices only.
        for device in lbg.ledger.devices():
            assert device in geo120.nodes
